"""Terms, term functions, clone generation and near-unanimity search.

A term is a finite tree over a signature with variable leaves.  The clone of
k-ary term functions is generated as the closure of the projections of
``L**(L^k)`` under the basic operations applied pointwise to tables; witness
terms are rebuilt from parent pointers in the closure queue, so tree
enumeration is never needed and absence at a given arity is decidable.

The near-unanimity cells of a carrier size and arity (``_nu_cells``) are
listed once here and serve both ``check_near_unanimity`` and the predicate
and priority of ``search_nu_function``.  The convexity loop,
``_convex_within``, also lives here, one table gather per position:
``is_convex`` runs it against all of L, and the local-to-global check in
``constrained`` against a fiber.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteAlgebra,
    InvalidInput,
    algebra_from_vectors,
    generate_vectors,
    power_index,
    power_tuple,
)


@dataclass(frozen=True)
class Var:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise InvalidInput("negative variable index")


@dataclass(frozen=True)
class App:
    op: str
    args: tuple

    def __post_init__(self):
        for a in self.args:
            if not isinstance(a, (Var, App)):
                raise InvalidInput("term children must be terms")


Term = Var | App


def term_variables(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.index,))
    out: set[int] = set()
    for a in t.args:
        out |= term_variables(a)
    return frozenset(out)


def term_to_text(t: Term) -> str:
    """Parenthesized prefix form, e.g. ``(join x0 (meet x1 x2))``."""
    if isinstance(t, Var):
        return "x%d" % t.index
    if not t.args:
        return t.op
    return "(%s %s)" % (t.op, " ".join(term_to_text(a) for a in t.args))


def term_from_text(text: str) -> Term:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise InvalidInput("unexpected end of term text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise InvalidInput("unexpected end of term text")
            op = tokens[pos]
            pos += 1
            args = []
            while pos < len(tokens) and tokens[pos] != ")":
                args.append(parse())
            if pos >= len(tokens):
                raise InvalidInput("unbalanced parentheses in term text")
            pos += 1
            return App(op, tuple(args))
        if tok == ")":
            raise InvalidInput("unbalanced parentheses in term text")
        if tok.startswith("x") and tok[1:].isdigit():
            return Var(int(tok[1:]))
        return App(tok, ())

    term = parse()
    if pos != len(tokens):
        raise InvalidInput("trailing tokens in term text")
    return term


def eval_term(A: FiniteAlgebra, t: Term, env: dict) -> int:
    """Value of the induced term function; every variable must be bound."""
    if isinstance(t, Var):
        if t.index not in env:
            raise InvalidInput("unbound variable x%d" % t.index)
        value = env[t.index]
        if not 0 <= value < A.size:
            raise InvalidInput("environment value %r outside carrier" % (value,))
        return value
    arity = A.signature.arity(t.op)
    if arity != len(t.args):
        raise InvalidInput("%r expects %d arguments, got %d" % (t.op, arity, len(t.args)))
    return A.apply(t.op, *(eval_term(A, a, env) for a in t.args))


@dataclass(frozen=True)
class TermFunction:
    """A tabulated k-ary operation on L, optionally with a witnessing term."""

    arity: int
    table: tuple[int, ...]
    term: Term | None = None

    def __call__(self, L: FiniteAlgebra, *args: int) -> int:
        return self.table[power_index(L.size, args)]


def term_function(L: FiniteAlgebra, t: Term, arity: int,
                  budget: int = DEFAULT_BUDGET) -> TermFunction:
    """Tabulate t on all of L**arity."""
    if any(v >= arity for v in term_variables(t)):
        raise InvalidInput("term uses variables beyond the requested arity")
    if L.size**arity > budget:
        raise BudgetExceeded("table of size %d exceeds budget" % L.size**arity)
    table = tuple(eval_term(L, t, dict(enumerate(args)))
                  for args in itertools.product(L.elements, repeat=arity))
    return TermFunction(arity, table, t)


@dataclass(frozen=True)
class NUCheck:
    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self):
        return self.ok


def check_near_unanimity(L: FiniteAlgebra, f: TermFunction) -> NUCheck:
    """f(a..a b a..a) = a for every a, b and every position.

    On failure the violating tuple is returned.  Arity below 3 is rejected.
    """
    if f.arity < 3:
        raise InvalidInput("near-unanimity check requires arity >= 3")
    n = L.size
    if len(f.table) != n**f.arity:
        raise InvalidInput("table size does not match the carrier")
    table = f.table
    for index, a in _nu_cells(n, f.arity):
        if table[index] != a:
            return NUCheck(False, power_tuple(n, f.arity, index))
    return NUCheck(True)


@functools.lru_cache(maxsize=64)
def _nu_cells(n: int, arity: int) -> tuple[tuple[int, int], ...]:
    """(flat index, a) for each a, b and position, in that order: the cells
    where a near-unanimity table must read a.  The b = a cells repeat once
    per position, so counting failing cells weighs a wrong diagonal entry
    ``arity`` times."""
    cells = []
    for a in range(n):
        for b in range(n):
            for pos in range(arity):
                args = [a] * arity
                args[pos] = b
                cells.append((power_index(n, args), a))
    return tuple(cells)


def projection_function(L: FiniteAlgebra, arity: int, pos: int) -> TermFunction:
    table = tuple(args[pos] for args in itertools.product(L.elements, repeat=arity))
    return TermFunction(arity, table, Var(pos))


def clone_search(L: FiniteAlgebra, arity: int, predicate,
                 budget: int = DEFAULT_BUDGET, priority=None):
    """Clone closure with early exit, as a best-first queue.

    Generates every ``arity``-ary term function of L (tables deduplicated,
    witnesses rebuilt from parent pointers), testing ``predicate`` on each
    table as it is produced, and returns the first hit; returns None after
    exhausting the clone, which proves absence at this arity.  ``priority``
    only reorders the closure queue (lower first, ties by insertion), so a
    good heuristic finds a hit early without giving up completeness.  Each
    pair of tables is combined exactly once, when the later of the two is
    popped.  ``budget`` caps the work: every table tried counts against
    it, duplicates included, so an absence proof that would combine more
    argument tuples than that raises BudgetExceeded instead.
    """
    length = L.size**arity
    if length > budget:
        raise BudgetExceeded("clone tables of size %d exceed budget" % length)
    if priority is None:
        priority = lambda table: 0
    n = L.size
    tables: list[tuple] = []
    recipe: list = []
    index: dict[tuple, int] = {}
    heap: list[tuple] = []
    hit: list[int] = []
    tried = 0

    def witness(i) -> Term:
        kind, payload = recipe[i]
        if kind == "var":
            return Var(payload)
        op, args = payload
        return App(op, tuple(witness(a) for a in args))

    def insert(candidate, entry):
        nonlocal tried
        tried += 1
        if tried > budget:
            raise BudgetExceeded("clone search exceeds budget %d" % budget)
        if candidate in index:
            return False
        i = len(tables)
        index[candidate] = i
        tables.append(candidate)
        recipe.append(entry)
        if predicate(candidate):
            hit.append(i)
            return True
        heapq.heappush(heap, (priority(candidate), i))
        return False

    for i in range(arity):
        if insert(projection_function(L, arity, i).table, ("var", i)):
            return TermFunction(arity, tables[hit[0]], witness(hit[0]))
    for name, op_arity in L.signature.ops:
        if op_arity == 0:
            if insert((L.apply(name),) * length, ("app", (name, ()))):
                return TermFunction(arity, tables[hit[0]], witness(hit[0]))

    # unary, then binary, then wider operations, each group in signature
    # order: the order in which tables are found fixes the witness terms
    ops = sorted(((name, r, L._flat[name].tolist()) for name, r in L.signature.ops if r > 0),
                 key=lambda op: min(op[1], 3))
    done: list[int] = []
    while heap:
        _, current = heapq.heappop(heap)
        done.append(current)
        for name, r, table in ops:
            for rest in itertools.product(done, repeat=r - 1):
                for pos in range(r):
                    args = rest[:pos] + (current,) + rest[pos:]
                    flat = tables[args[0]]
                    for a in args[1:]:
                        flat = [i * n + x for i, x in zip(flat, tables[a])]
                    if insert(tuple([table[i] for i in flat]), ("app", (name, args))):
                        return TermFunction(arity, tables[hit[0]], witness(hit[0]))
    return None


def search_nu_function(L: FiniteAlgebra, arity: int,
                       budget: int = DEFAULT_BUDGET) -> TermFunction | None:
    """Some near-unanimity term function of the given arity, or None.

    Because the whole clone is generated, None is a proof of absence; the
    violation count steers the queue so that an existing NU function is
    found long before the closure is exhausted.
    """
    if arity < 3:
        raise InvalidInput("near-unanimity arity must be >= 3")
    cells = _nu_cells(L.size, arity)
    return clone_search(L, arity, lambda t: all(t[i] == a for i, a in cells),
                        budget=budget,
                        priority=lambda t: sum(t[i] != a for i, a in cells))


def pad_nu_function(L: FiniteAlgebra, f: TermFunction, arity: int) -> TermFunction:
    """Widen an NU function by ignoring the new arguments (still NU)."""
    if arity < f.arity:
        raise InvalidInput("padding cannot shrink the arity")
    n = L.size
    table = tuple(f.table[power_index(n, args[: f.arity])]
                  for args in itertools.product(L.elements, repeat=arity))
    term = f.term
    return TermFunction(arity, table, term)


def free_one_generated(L: FiniteAlgebra,
                       budget: int = DEFAULT_BUDGET) -> tuple[FiniteAlgebra, int]:
    """The free 1-generated algebra in the prevariety of L, with its generator.

    Concretely the subalgebra of L**L generated by the identity vector, built
    without tabulating the full power.  Returns (algebra, generator index).
    """
    if L.size**L.size > budget:
        raise BudgetExceeded("L**L carrier exceeds budget")
    identity = tuple(L.elements)
    vectors = generate_vectors(L, L.size, [identity], budget=budget)
    F, carrier = algebra_from_vectors(L, L.size, vectors)
    return F, carrier.index(identity)


def separating_term_posmv(n: int, a: int, b: int) -> Term:
    """A unary term over the positive MV chain on {0,1/n,..,1} with t(a)=1, t(b)=0.

    Needs a > b (indices; the chain order).  Doubles with oplus while the
    pair sits at or below 1/2 or straddles it strictly, squares with odot
    while both sit at or above 1/2 with the larger strictly above (squaring
    is forced when the smaller value equals 1/2 exactly: doubling would send
    both to 1).  Each non-final step doubles the gap, so the loop ends with
    the pair at (1, <1); a final odot power kills the smaller value.
    """
    if not 0 <= b < a <= n:
        raise InvalidInput("requires chain elements with a > b")
    term: Term = Var(0)
    va, vb = a, b  # numerators over n
    while not (va == n and vb < n):
        if 2 * vb >= n and 2 * va > n:
            term = App("odot", (term, term))
            va, vb = max(2 * va - n, 0), max(2 * vb - n, 0)
        else:
            term = App("oplus", (term, term))
            va, vb = min(2 * va, n), min(2 * vb, n)
    # smallest m with m*(n - vb) >= n, so that the m-th odot power of vb is 0
    m = -(-n // (n - vb))
    powered = term
    for _ in range(m - 1):
        powered = App("odot", (powered, term))
    return powered


def is_convex(L: FiniteAlgebra, m: TermFunction, M) -> bool:
    """Closure of M under m applied to tuples with at most one entry outside M."""
    if not check_near_unanimity(L, m):
        raise InvalidInput("convexity is defined relative to a near-unanimity function")
    M = set(M)
    if not M.issubset(L.elements):
        raise InvalidInput("subset element outside carrier")
    return _convex_within(L, m, M, L.elements)


def _convex_within(L: FiniteAlgebra, m: TermFunction, subset, ambient) -> bool:
    """Convexity of subset relative to ambient: the odd entry ranges over
    ambient rather than all of L (the form the extension lemma provides).
    One gather of m's table per position of the odd entry, read through a
    membership mask of subset."""
    subset, ambient = sorted(subset), sorted(ambient)
    inside = np.zeros(L.size, dtype=bool)
    inside[subset] = True
    table = np.asarray(m.table, dtype=np.int64).reshape((L.size,) * m.arity)
    for pos in range(m.arity):
        axes = [subset] * m.arity
        axes[pos] = ambient
        if not inside[table[np.ix_(*axes)]].all():
            return False
    return True
