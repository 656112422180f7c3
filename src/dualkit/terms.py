"""Terms, term functions, clone generation and near-unanimity search.

A term is a finite tree over a signature with variable leaves.  The clone of
k-ary term functions is generated as the closure of the projections of
``L**(L^k)`` under the basic operations applied pointwise to tables; witness
terms are rebuilt from parent pointers in the closure queue, so tree
enumeration is never needed and absence at a given arity is decidable.

The near-unanimity cells of a carrier size and arity (``_nu_cells``) are
listed once here and serve both ``check_near_unanimity`` and the predicate
and priority of ``search_nu_function``.  The convexity check,
``_convex_masks``, also lives here and decides a batch of (subset, ambient)
mask pairs at once: ``is_convex`` asks it for one pair, against all of L,
and the local-to-global check in ``constrained`` for every distinct pair of
a possible-extension set and its fiber.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebras
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
from .topology import bits_of, mask_of


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

    Tables are tried in batches, the rows of a small-int array with one
    column per cell: ``predicate`` maps a batch to one bool per row and
    ``priority`` to one integer per row.  Each new table reaches them once,
    in the order a search one table at a time would meet it; the new tables
    of a batch past its first hit reach ``predicate`` too.  A popped table's
    candidates are built per run of operations of one arity, with the other
    arguments broadcast from the array of tables popped so far and one
    gather of the run's stacked tables, in batches of at most
    ``algebras._BLOCK_CELLS`` cells.  Each table found is kept once, as the
    bytes of its row, which are also its key for deduplication.
    """
    length = L.size**arity
    if length > budget:
        raise BudgetExceeded("clone tables of size %d exceed budget" % length)
    n = L.size
    dtype = np.min_scalar_type(max(n - 1, 0))
    tables: list[bytes] = []    # the tables found, by index, as the bytes of their rows
    seen: set[bytes] = set()
    recipe: list = []           # (describe, j) per table: describe(j) is a Var or (op, args)
    heap: list[tuple] = []
    tried = 0

    @functools.cache
    def witness(i) -> Term:
        describe, j = recipe[i]
        made = describe(j)
        if isinstance(made, Var):
            return made
        op, args = made
        return App(op, tuple(witness(a) for a in args))

    def offer(rows, describe):
        """Try the rows in order and return the index of the first hit, or None."""
        nonlocal tried
        take = min(len(rows), budget - tried)
        tried += take
        keys = _row_keys(rows[:take])
        fresh = [j for j, key in enumerate(keys) if key not in seen and not seen.add(key)]
        if fresh:
            new = rows.take(fresh, axis=0) if len(fresh) < len(rows) else rows
            hits = np.asarray(predicate(new)).nonzero()[0]
            if len(hits):
                del fresh[hits[0] + 1:]
            tables.extend(keys[j] for j in fresh)
            recipe.extend((describe, j) for j in fresh)
            if len(hits):
                return len(tables) - 1
            weights = [0] * len(new) if priority is None else np.asarray(priority(new)).tolist()
            for i, weight in enumerate(weights, len(tables) - len(new)):
                heapq.heappush(heap, (weight, i))
        if take < len(rows):
            raise BudgetExceeded("clone search exceeds budget %d" % budget)
        return None

    def table(i) -> np.ndarray:
        return np.frombuffer(tables[i], dtype=dtype)

    def result(hit):
        return TermFunction(arity, tuple(table(hit).tolist()), witness(hit))

    # the projections, then the constants in signature order
    constants = L.signature.constants
    values = np.array([L.apply(name) for name in constants], dtype=dtype)
    start = np.concatenate((np.indices((n,) * arity, dtype=dtype).reshape(arity, length),
                            values[:, None].repeat(length, axis=1)))
    hit = offer(start, lambda j: Var(j) if j < arity else (constants[j - arity], ()))
    if hit is not None:
        return result(hit)

    runs = _runs(L)
    limit = max(1, algebras._BLOCK_CELLS // max(length, 1))     # rows per batch
    done: list[int] = []
    popped = np.empty((2 * arity + 2, length), dtype=dtype)    # the tables of done, in order
    while heap:
        _, current = heapq.heappop(heap)
        if len(done) == len(popped):
            popped = np.concatenate((popped, np.empty_like(popped)))
        popped[len(done)] = table(current)
        done.append(current)
        for rows, describe in _batches(_candidates(runs, popped[:len(done)], done, limit),
                                       limit):
            hit = offer(rows, describe)
            if hit is not None:
                return result(hit)
    return None


@functools.lru_cache(maxsize=64)
def _runs(L: FiniteAlgebra) -> tuple:
    """L's operations as runs for ``_candidates``: (r, names, moved,
    positions) per run of operations of one arity r, where
    moved[op, pos, c, *rest] (read-only) is the operation with c at
    position pos and rest at the others, and positions is 0..r-1 as a column.
    Unary, then binary, then wider operations, each group in signature
    order: the order in which tables are found fixes the witness terms."""
    ops = sorted(((name, r) for name, r in L.signature.ops if r > 0),
                 key=lambda op: min(op[1], 3))
    runs = []
    for r, run in itertools.groupby(ops, key=lambda op: op[1]):
        names = [name for name, _ in run]
        tables = np.stack([L._flat[name] for name in names])
        tables = tables.astype(np.min_scalar_type(max(L.size - 1, 0)))
        tables = tables.reshape((len(names),) + (L.size,) * r)
        moved = np.stack([np.moveaxis(tables, 1 + pos, 1) for pos in range(r)], axis=1)
        moved.flags.writeable = False
        runs.append((r, names, moved, np.arange(r).reshape(r, 1)))
    return tuple(runs)


def _candidates(runs, rows, done, limit):
    """The tables that popping done[-1] tries, as (rows, describe) pieces
    in order: per run of operations of one arity r, the operation, then
    the other r - 1 arguments from done (the first most significant), then
    the position of done[-1] among the r.  ``rows`` holds the tables of
    done.  A piece is one chunk of that grid, at most ``limit`` rows unless
    one grid cell alone is more, and one gather of the run's ``moved``."""
    width = rows.shape[1]
    for r, names, moved, positions in runs:
        dims = (len(names),) + (len(done),) * (r - 1)
        for chunk in algebras._grid_chunks(dims, limit // r):
            index = (chunk[0], positions, rows[-1])
            for q, s in enumerate(chunk[1:]):
                part = rows[s]
                index += (part.reshape((1,) * q + (len(part),) + (1,) * (r - 2 - q) + (1, width)),)
            block = moved[index]
            # done only grows, so the indices the chunk names stay valid
            yield (block.reshape(math.prod(block.shape[:-1]), width),
                   functools.partial(_recipe, names, done, chunk, dims, done[-1]))


def _recipe(names, done, chunk, dims, current, j):
    """(operation, argument indices) of row j of a ``_candidates`` piece:
    the chunk of the grid ``dims`` over the operations and done."""
    spans = [range(*s.indices(d)) for s, d in zip(chunk, dims)]
    j, pos = divmod(j, len(dims))           # r positions, as the grid has r axes
    index = []
    for span in reversed(spans):
        j, digit = divmod(j, len(span))
        index.append(span[digit])
    op, *rest = reversed(index)
    args = [done[d] for d in rest]
    args.insert(pos, current)
    return names[op], tuple(args)


def _batches(pieces, limit):
    """(rows, describe) pieces joined in order into batches of at most
    ``limit`` rows, or one piece where that alone is more; a batch's
    describe sends row j to the piece that holds it.  A small pop is then
    one batch, whatever its runs: one key pass and one predicate and
    priority call, which set the time of a search over a two-element
    algebra."""
    group, size = [], 0
    for piece in itertools.chain(pieces, [None]):
        if group and (piece is None or size + len(piece[0]) > limit):
            if len(group) == 1:
                yield group[0]
            else:
                ends = list(itertools.accumulate(len(rows) for rows, _ in group))
                yield (np.concatenate([rows for rows, _ in group]),
                       functools.partial(_piece_of, ends, [d for _, d in group]))
            group, size = [], 0
        if piece is not None:
            group.append(piece)
            size += len(piece[0])


def _piece_of(ends, describes, j):
    k = bisect.bisect_right(ends, j)
    return describes[k](j - (ends[k - 1] if k else 0))


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """One bytes key per row of a 2-d array; equal rows, equal keys."""
    width = rows.shape[1] * rows.itemsize
    if not width:
        return [b""] * len(rows)
    data = rows.tobytes()
    return [data[i:i + width] for i in range(0, len(data), width)]


def search_nu_function(L: FiniteAlgebra, arity: int,
                       budget: int = DEFAULT_BUDGET) -> TermFunction | None:
    """Some near-unanimity term function of the given arity, or None.

    Because the whole clone is generated, None is a proof of absence; the
    violation count steers the queue so that an existing NU function is
    found long before the closure is exhausted.
    """
    if arity < 3:
        raise InvalidInput("near-unanimity arity must be >= 3")
    cells = np.array(_nu_cells(L.size, arity), dtype=np.int64).reshape(-1, 2)
    at, want = cells[:, 0], cells[:, 1]
    return clone_search(L, arity, lambda rows: (rows.take(at, axis=1) == want).all(axis=1),
                        budget=budget,
                        priority=lambda rows: (rows.take(at, axis=1) != want).sum(axis=1))


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
    return bool(_convex_masks(L, m, [(mask_of(M), mask_of(L.elements))])[0])


def _convex_masks(L: FiniteAlgebra, m: TermFunction, pairs) -> np.ndarray:
    """For each (subset mask, ambient mask) pair, the convexity of subset
    relative to ambient: m maps into subset every tuple with one entry,
    the odd one, in ambient and the others in subset (the form the
    extension lemma provides).  One bool per pair, decided for all pairs
    at once over every cell of m's table, in blocks of at most
    ``algebras._BLOCK_CELLS`` pair-cells."""
    n, arity = L.size, m.arity
    masks = np.zeros((len(pairs), 2, n), dtype=bool)
    for p, (subset, ambient) in enumerate(pairs):
        masks[p, 0, bits_of(subset)] = True
        masks[p, 1, bits_of(ambient)] = True
    coords = np.indices((n,) * arity).reshape(arity, -1)    # each cell's arguments
    table = np.asarray(m.table, dtype=np.int64)
    verdicts = np.empty(len(pairs), dtype=bool)
    step = max(1, algebras._BLOCK_CELLS // max(arity * len(table), 1))
    for first in range(0, len(pairs), step):
        inside, ambient = masks[first:first + step].transpose(1, 0, 2)
        odd = ~inside[:, coords]                # (pairs, arity, cells): entry outside subset
        others_inside = odd.sum(axis=1, keepdims=True) - odd == 0
        reached = (ambient[:, coords] & others_inside).any(axis=1)
        verdicts[first:first + step] = ~(reached & ~inside[:, table]).any(axis=1)
    return verdicts
