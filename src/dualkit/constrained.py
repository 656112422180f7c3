"""k-ary and unary L-constrained spaces.

A k-ary constrained space is a finite topology plus a continuous subdirect
family of constraints A_I <= L^I for |I| <= k; the unary form replaces the
family by one subuniverse of L per point and a closed equivalence relation.
Constraints are stored for |I| = min(k, n) and |I| <= 1 only (a key of any
other size is rejected); intermediate sizes are derived by projection, which
subdirectness makes unambiguous (validation checks exactly that).  Local
functions on I are tuples aligned with sorted(I), and ``_reindex`` is the one
place that reads them at other points of I.

Every search over local functions (the compatible functions on a set of
points, the local extension property, ccomp, the possible-extension sets)
goes through one lookup, the extension mask ``_extensions(space, I, g, j)``:
for g compatible on the sorted tuple I and a point j outside it, the bitmask
over L of every b such that g extended by j -> b is compatible on I + {j}.
It ANDs one table per subset T of I with |T| <= k-1; the table for (T, j)
maps the values of a function on T to the values at j that A_{T+{j}} allows
(T empty gives j's fiber).  Local constancy narrows it further: b must equal
g(q) when q lies in N(j) or j in N(q).  The tables are built on first use and
cached on the space, so every search on one space shares them.  Only the
compatible functions are ever enumerated: those on I extend those on I[:-1]
by I[-1].  A unary space is searched through its binary presentation
(``unary_to_binary``), read off the fibers so that no pair constraint is
built: the diagonal of the fiber on equivalent points and the product of the
fibers elsewhere give the same masks, search order and budget count.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Congruence,
    FiniteAlgebra,
    InvalidInput,
    unclosed_operation,
)
from .spaces import LSpace, lspace
from .terms import TermFunction, _convex_within, check_near_unanimity
from .topology import FiniteTopology, bits_of, mask_of


def _reindex(funs, I_sorted, xs) -> frozenset:
    """The local functions funs on the sorted tuple I_sorted, read at the
    points xs of I (in any order, repeats allowed)."""
    position = {p: i for i, p in enumerate(I_sorted)}
    at = [position[x] for x in xs]
    return frozenset(tuple(f[i] for i in at) for f in funs)


class ConstrainedSpace:
    """A k-ary constrained space for k >= 2 (immutable after construction)."""

    __slots__ = ("k", "topology", "dualizer", "constraints", "_derived", "_tables")

    def __init__(self, k: int, topology: FiniteTopology, dualizer: FiniteAlgebra,
                 constraints: dict):
        if k < 2:
            raise InvalidInput("k-ary constrained spaces require k >= 2; use the unary form")
        n = topology.n
        m = min(k, n)
        required = {frozenset(c) for c in itertools.combinations(range(n), m)}
        required |= {frozenset((x,)) for x in range(n)}
        required.add(frozenset())
        normalized = {}
        given = {frozenset(key): frozenset(tuple(f) for f in funs)
                 for key, funs in constraints.items()}
        for key in given:
            if not key <= set(range(n)):
                raise InvalidInput("constraint key outside the point set")
            if len(key) > k:
                raise InvalidInput("constraint key larger than k")
            if 1 < len(key) < m:
                raise InvalidInput("constraint key %r has %d points; stored keys have %d "
                                   "or at most one" % (sorted(key), len(key), m))
        # larger keys first so smaller ones can be derived by projection
        for key in sorted(required, key=lambda s: (-len(s), sorted(s))):
            if key in given:
                normalized[key] = given[key]
            elif len(key) < m:
                normalized[key] = _derive_by_projection(normalized, key, n, m)
            elif len(key) == 0 and dualizer.signature.constants:
                normalized[key] = frozenset(((),))
            else:
                raise InvalidInput("missing constraint for %r" % sorted(key))
        for key, funs in normalized.items():
            order = tuple(sorted(key))
            for f in funs:
                if len(f) != len(order):
                    raise InvalidInput("local function of wrong length for %r" % (order,))
                if any(not 0 <= v < dualizer.size for v in f):
                    raise InvalidInput("local function value outside the carrier")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "dualizer", dualizer)
        object.__setattr__(self, "constraints", normalized)
        object.__setattr__(self, "_derived", {})
        # extension-mask tables keyed by (T, j), built on first use
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):
        raise AttributeError("ConstrainedSpace is immutable")

    @property
    def n(self) -> int:
        return self.topology.n

    def constraint(self, points) -> frozenset:
        """A_I for any I with |I| <= k, derived by projection if not stored."""
        key = frozenset(points)
        if len(key) > self.k:
            raise InvalidInput("constraint arity exceeds k")
        if key in self.constraints:
            return self.constraints[key]
        if key not in self._derived:
            m = min(self.k, self.n)
            self._derived[key] = _derive_by_projection(
                self.constraints, key, self.n, m)
        return self._derived[key]

    def constraint_tuple(self, xs) -> frozenset:
        """A_{<x1..xl>} in the tuple presentation (repeats allowed)."""
        xs = tuple(xs)
        key_sorted = tuple(sorted(set(xs)))
        return _reindex(self.constraint(key_sorted), key_sorted, xs)

    def _build_table(self, T, j) -> dict:
        S = tuple(sorted(T + (j,)))
        at = S.index(j)
        table = {}
        for f in self.constraint(S):
            key = f[:at] + f[at + 1:]
            table[key] = table.get(key, 0) | 1 << f[at]
        return table


def _derive_by_projection(stored, key, n, m):
    if len(key) >= m:
        raise InvalidInput("cannot derive a constraint of size %d" % len(key))
    rest = [p for p in range(n) if p not in key]
    superset = frozenset(sorted(key) + rest[: m - len(key)])
    base = stored.get(superset)
    if base is None:
        raise InvalidInput("missing constraint for %r" % sorted(superset))
    return _reindex(base, tuple(sorted(superset)), sorted(key))


class UnaryConstrainedSpace:
    """Per-point subuniverses of L plus a closed equivalence relation."""

    __slots__ = ("topology", "dualizer", "fibers", "equiv", "a_empty")

    def __init__(self, topology: FiniteTopology, dualizer: FiniteAlgebra,
                 fibers, equiv, a_empty: bool | None = None):
        n = topology.n
        fibers = tuple(frozenset(f) for f in fibers)
        if len(fibers) != n:
            raise InvalidInput("one fiber per point is required")
        for f in fibers:
            if any(not 0 <= v < dualizer.size for v in f):
                raise InvalidInput("fiber element outside the carrier")
        equiv = tuple(equiv)
        if len(equiv) != n:
            raise InvalidInput("equivalence class vector of wrong length")
        if a_empty is None:
            if dualizer.signature.constants:
                a_empty = True
            elif n > 0:
                a_empty = all(len(f) > 0 for f in fibers)
            else:
                raise InvalidInput("a_empty must be given for the empty constant-free space")
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "dualizer", dualizer)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "equiv", equiv)
        object.__setattr__(self, "a_empty", bool(a_empty))

    def __setattr__(self, name, value):
        raise AttributeError("UnaryConstrainedSpace is immutable")

    @property
    def n(self) -> int:
        return self.topology.n

    def related(self, x: int, y: int) -> bool:
        return self.equiv[x] == self.equiv[y]


# --- validation -----------------------------------------------------------------

@dataclass(frozen=True)
class ConstrainedReport:
    subdirect: bool
    continuous: bool
    separated: bool
    scott_continuous: bool

    @property
    def valid(self) -> bool:
        return self.subdirect and self.continuous


def validate_constrained(space: ConstrainedSpace) -> ConstrainedReport:
    """Exact flags for subdirectness, continuity, separation, Scott continuity.

    Scott continuity of xbar -> A_xbar into Sub(L^k) is equivalent to the
    openness of every X_abar that ``_family_is_continuous`` decides, so it is
    reported as the same flag; the tests check the equivalence against a
    direct computation over the principal upsets of Sub(L^k).
    """
    L, n, k = space.dualizer, space.n, space.k
    m = min(k, n)
    subdirect = True
    for key, funs in space.constraints.items():
        if unclosed_operation(L, len(key), funs) is not None:
            raise InvalidInput("constraint for %r is not a subuniverse" % sorted(key))
    # every projection of every stored A_I equals the A_J that constraint()
    # derives, so any two stored constraints agree on their common points
    stored_m = [key for key in space.constraints if len(key) == m]
    for key in stored_m:
        I_sorted = tuple(sorted(key))
        for size in range(m):
            for J in itertools.combinations(I_sorted, size):
                if _reindex(space.constraints[key], I_sorted, J) != space.constraint(J):
                    subdirect = False

    continuous = _family_is_continuous(space)

    separated = True
    for x in range(n):
        for y in range(x + 1, n):
            pairs = space.constraint_tuple((x, y))
            if not any(a != b for a, b in pairs):
                separated = False
    return ConstrainedReport(subdirect, continuous, separated, continuous)


def _family_is_continuous(space: ConstrainedSpace) -> bool:
    top, k, n = space.topology, space.k, space.n
    for key, funs in space.constraints.items():
        order = tuple(sorted(key))
        for f in funs:
            if not top.is_locally_constant(order, f):
                return False
    # Each X_a = { xbar : abar in A_xbar } must be open in the product
    # topology: A_xbar lies in A_ybar for every ybar in N(x1) x ... x N(xk).
    nbhd = [bits_of(top.min_nbhd(x)) for x in range(n)]
    for xbar in itertools.product(range(n), repeat=k):
        here = space.constraint_tuple(xbar)
        for ybar in itertools.product(*(nbhd[x] for x in xbar)):
            if not here <= space.constraint_tuple(ybar):
                return False
    return True


@dataclass(frozen=True)
class UnaryReport:
    subdirect: bool
    continuous: bool
    separated: bool
    equiv_closed: bool
    separation_witnessed: bool

    @property
    def valid(self) -> bool:
        return (self.subdirect and self.continuous and self.equiv_closed
                and self.separation_witnessed)


def validate_unary(space: UnaryConstrainedSpace) -> UnaryReport:
    top, L, n = space.topology, space.dualizer, space.n
    for f in space.fibers:
        if unclosed_operation(L, 1, [(v,) for v in f]) is not None:
            raise InvalidInput("a fiber is not a subuniverse of the dualizer")
    subdirect = all(bool(f) == space.a_empty for f in space.fibers) if n else True
    continuous = all(
        top.is_open(mask_of(x for x in range(n) if a in space.fibers[x]))
        for a in L.elements)
    # the complement of the equivalence relation must be open in X^2
    equiv_closed = top.is_closed_relation(
        [mask_of(y for y in range(n) if space.related(x, y)) for x in range(n)])
    separation_witnessed = all(
        space.related(x, y)
        or any(a != b for a in space.fibers[x] for b in space.fibers[y])
        for x in range(n) for y in range(n))
    separated = all(space.related(x, y) == (x == y)
                    for x in range(n) for y in range(n))
    return UnaryReport(subdirect, continuous, separated, equiv_closed, separation_witnessed)


# --- extension masks --------------------------------------------------------------

def _table(space, T, j):
    """Values of a function on the sorted tuple T -> mask of the values at j
    that A_{T+{j}} allows with them (j outside T, |T| <= k-1)."""
    table = space._tables.get((T, j))
    if table is None:
        table = space._tables[T, j] = space._build_table(T, j)
    return table


def _fiber_mask(space, x: int) -> int:
    return _table(space, (), x).get((), 0)


def _empty_compatible(space) -> bool:
    """Whether the empty local function is compatible."""
    return () in space.constraint(())


@dataclass(frozen=True, slots=True)
class _PairTable:
    """A pair table of ``_Presentation``: a value a in ``keys`` allows
    ``values`` at the other point, or a alone when ``values`` is None."""
    keys: int
    values: int | None

    def get(self, key, default):
        (a,) = key
        if not self.keys >> a & 1:
            return default
        return 1 << a if self.values is None else self.values


class _Presentation:
    """``unary_to_binary(space)`` as the search reads it: A_I and the tables
    come from the fibers, and no pair constraint is built."""

    k = 2

    def __init__(self, space: UnaryConstrainedSpace):
        self.unary, self.topology, self.n = space, space.topology, space.n
        self._tables: dict = {}

    def constraint(self, points) -> frozenset:
        """A_I for at most two points, as ``unary_to_binary`` stores it."""
        I, space = tuple(sorted(points)), self.unary
        if not I:
            return frozenset({()} if space.a_empty else ())
        if len(I) == 2 and space.related(*I):
            return frozenset((a, a) for a in space.fibers[I[0]])
        return frozenset(itertools.product(*(sorted(space.fibers[x]) for x in I)))

    def _build_table(self, T, j):
        fibers = self.unary.fibers
        if not T:
            return {(): mask_of(fibers[j])}
        (q,) = T
        if self.unary.related(q, j):
            return _PairTable(mask_of(fibers[min(q, j)]), None)
        return _PairTable(mask_of(fibers[q]), mask_of(fibers[j]))


def _kary(space):
    """The space a search runs on: a unary space's binary presentation."""
    if isinstance(space, UnaryConstrainedSpace):
        return _Presentation(space)
    return space


@functools.lru_cache(maxsize=4096)
def _subsets(I: tuple, most: int) -> tuple:
    """(T, key) for every T <= I with |T| <= most, where key picks the
    values on T out of a function on I as a tuple."""
    out = []
    for size in range(min(most, len(I)) + 1):
        for positions in itertools.combinations(range(len(I)), size):
            if size > 1:
                key = operator.itemgetter(*positions)
            else:       # a slice keeps the value a tuple
                start = positions[0] if positions else 0
                key = operator.itemgetter(slice(start, start + size))
            out.append((tuple(I[i] for i in positions), key))
    return tuple(out)


def _extensions(space, I: tuple, g: tuple, j: int) -> int:
    """Bitmask over L of every b such that g, extended by j -> b, is
    compatible on I + {j}; g must be compatible on the sorted tuple I."""
    mask = -1
    for T, key in _subsets(I, space.k - 1):
        mask &= _table(space, T, j).get(key(g), 0)
    nbhds = space.topology.nbhds
    around = nbhds[j]
    for q, v in zip(I, g):
        if around >> q & 1 or nbhds[q] >> j & 1:
            mask &= 1 << v
    return mask


def _extend_all(space, I, funs, j) -> list[tuple[int, ...]]:
    """Every compatible extension by j of the functions funs, compatible on
    the sorted tuple I; with j above I, lexicographic order is kept."""
    return [g + (b,) for g in funs for b in bits_of(_extensions(space, I, g, j))]


def _local_functions(space, max_size: int):
    """(I, compatible local functions on I) for every I of at most max_size
    points, by size and then lexicographically; the functions on I are those
    on I[:-1] extended by I[-1], so each list is in lexicographic order."""
    if max_size < 0:
        return
    level = {(): [()] if _empty_compatible(space) else []}
    yield (), level[()]
    for size in range(1, max_size + 1):
        previous, level = level, {}
        for I in itertools.combinations(range(space.n), size):
            head, j = I[:-1], I[-1]
            level[I] = funs = _extend_all(space, head, previous[head], j)
            yield I, funs


def compatible_local_functions(space, points_sorted) -> list[tuple[int, ...]]:
    """The compatible local functions on a sorted tuple of points, in
    lexicographic order."""
    space = _kary(space)
    I = tuple(points_sorted)
    funs = [()] if _empty_compatible(space) else []
    for i, j in enumerate(I):
        funs = _extend_all(space, I[:i], funs, j)
    return funs


# --- compatible global functions ---------------------------------------------------

def ccomp(space, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """The continuous compatible global functions, by forward checking.

    Points are assigned in ascending fiber-size order.  Assigning p := v
    narrows the value mask of every unassigned point q: by each constraint
    on q, p and at most k-2 further assigned points (for a unary space, the
    pair constraint of its binary presentation carries the equivalence), and
    to v on p's topological component (which is exactly the continuity
    requirement).  A point left without values ends the branch.  Every value
    tried counts one unit of ``budget``; BudgetExceeded once the count
    passes it.
    """
    space = _kary(space)
    top, n = space.topology, space.n
    if not _empty_compatible(space):
        return []
    if n == 0:
        return [()]
    start = [_fiber_mask(space, x) for x in range(n)]
    order = sorted(range(n), key=lambda x: (start[x].bit_count(), x))
    components = top.components()
    values: list[int | None] = [None] * n
    out = []
    tried = 0

    @functools.cache
    def supports(idx):
        """Every sorted S holding order[idx] and at most k-2 points assigned
        before it."""
        return [tuple(sorted(rest + (order[idx],)))
                for size in range(min(space.k - 2, idx) + 1)
                for rest in itertools.combinations(order[:idx], size)]

    def extend(idx, domains):
        nonlocal tried
        if idx == n:
            out.append(tuple(values))
            return
        p = order[idx]
        for v in bits_of(domains[p]):
            tried += 1
            if tried > budget:
                raise BudgetExceeded("ccomp search exceeds budget")
            values[p] = v
            later = order[idx + 1:]
            held = later and [(S, tuple(map(values.__getitem__, S))) for S in supports(idx)]
            narrowed = list(domains)
            for q in later:
                mask = narrowed[q]
                if components[q] == components[p]:
                    mask &= 1 << v
                for S, key in held:
                    mask &= _table(space, S, q).get(key, 0)
                if not mask:
                    break
                narrowed[q] = mask
            else:
                extend(idx + 1, narrowed)
        values[p] = None

    extend(0, start)
    return sorted(out)


def func(space, budget: int = DEFAULT_BUDGET) -> LSpace:
    """Wrap the space's topology with its continuous compatible functions."""
    return lspace(space.topology, space.dualizer, ccomp(space, budget=budget))


def cons(X: LSpace, k: int):
    """Constraints by projection of the compatible functions of an L-space.

    For k >= 2 this is the k-ary space with A_I = pi_I[Comp X]; for k = 1 the
    unary space whose equivalence relates points on which every compatible
    function agrees.  The result has the global extension property by
    construction.
    """
    n = X.n
    functions = sorted(X.functions)
    if k == 1:
        classes = Congruence.from_blocks(tuple(f[x] for f in functions) for x in range(n)).blocks
        fibers = [frozenset(f[x] for f in functions) for x in range(n)]
        a_empty = bool(functions)
        return UnaryConstrainedSpace(X.topology, X.dualizer, fibers, classes, a_empty)
    if k < 1:
        raise InvalidInput("constraint arity must be >= 1")
    m = min(k, n)
    family = {}
    for size in {m, 0, 1}:
        for key in itertools.combinations(range(n), size):
            family[frozenset(key)] = {tuple(f[p] for p in key) for f in functions}
    return ConstrainedSpace(k, X.topology, X.dualizer, family)


# --- extension properties --------------------------------------------------------

def has_global_extension(space, budget: int = DEFAULT_BUDGET):
    """Whether every local constraint member extends to a global function.

    Returns (flag, witness, functions); a witness is an unextendable pair
    (points, local function), or a pair of points for the unary separation
    clause.
    """
    functions = ccomp(space, budget=budget)
    if isinstance(space, UnaryConstrainedSpace):
        if space.a_empty and not functions:
            return False, ((), ()), functions
        for x in range(space.n):
            for a in sorted(space.fibers[x]):
                if not any(f[x] == a for f in functions):
                    return False, ((x,), (a,)), functions
        for x, y in itertools.product(range(space.n), repeat=2):
            if not space.related(x, y) and all(f[x] == f[y] for f in functions):
                return False, ((x, y), None), functions
        return True, None, functions
    for key in sorted(space.constraints, key=lambda s: (len(s), sorted(s))):
        order = tuple(sorted(key))
        covered = {tuple(f[p] for p in order) for f in functions}
        for g in sorted(space.constraints[key]):
            if g not in covered:
                return False, (order, g), functions
        if not covered <= space.constraints[key]:
            return False, (order, None), functions
    return True, None, functions


def has_local_extension(space, n_arity: int, budget: int = DEFAULT_BUDGET):
    """n-ary local extension property: every compatible local function on at
    most n points extends by any one further point.  Returns (flag, witness)
    with witness = (points, new point, local function).  The enumerated local
    functions plus the extension tests may number at most ``budget``."""
    space = _kary(space)
    n = space.n
    work = 0
    for I, funs in _local_functions(space, min(n_arity, n)):
        work += len(funs)
        for g in funs:
            work += n - len(I)          # the extension tests of g
            if work > budget:
                raise BudgetExceeded("local extension search exceeds budget")
            for j in range(n):
                if j not in I and not _extensions(space, I, g, j):
                    return False, (I, j, g)
    return True, None


def possible_extensions(space: ConstrainedSpace, points_sorted, fun, y: int) -> frozenset:
    """M_{f,y}: the values b in y's fiber with f + (y -> b) in A_{I+{y}},
    for f on I with |I| <= k-1."""
    points_sorted = tuple(points_sorted)
    if len(points_sorted) > space.k - 1:
        raise InvalidInput("possible_extensions needs |I| <= k-1")
    if y in points_sorted:
        raise InvalidInput("extension point must lie outside I")
    I, f = zip(*sorted(zip(points_sorted, fun))) if points_sorted else ((), ())
    mask = _table(space, I, y).get(f, 0) & _fiber_mask(space, y)
    return frozenset(bits_of(mask))


@dataclass(frozen=True)
class LocalToGlobalVerdict:
    lep: bool
    lep_witness: tuple | None
    gep: bool | None
    gep_witness: tuple | None

    @property
    def theorem_holds(self) -> bool:
        return (not self.lep) or bool(self.gep)


def local_to_global_verify(space: ConstrainedSpace, m: TermFunction,
                           budget: int = DEFAULT_BUDGET) -> LocalToGlobalVerdict:
    """If the space has the k(k-1)-ary local extension property, the global
    one must follow; any counterexample is an implementation bug, so it is
    reported as a fatal theorem violation.  The convexity of every
    possible-extension set (relative to its fiber) is asserted along the way.
    """
    if not check_near_unanimity(space.dualizer, m):
        raise InvalidInput("local_to_global_verify needs a near-unanimity function")
    if m.arity != space.k + 1:
        raise InvalidInput("near-unanimity arity must be k+1")
    k = space.k
    for I, funs in _local_functions(space, k - 1):
        for g in funs:
            for y in range(space.n):
                if y in I:
                    continue
                M = possible_extensions(space, I, g, y)
                fiber = bits_of(_fiber_mask(space, y))
                if not _convex_within(space.dualizer, m, M, fiber):
                    raise AssertionError(
                        "possible-extension set is not convex: lemma violated")
    lep, lep_wit = has_local_extension(space, k * (k - 1), budget=budget)
    if not lep:
        return LocalToGlobalVerdict(False, lep_wit, None, None)
    gep, gep_wit, _ = has_global_extension(space, budget=budget)
    return LocalToGlobalVerdict(True, None, gep, gep_wit)


# --- unary <-> binary -----------------------------------------------------------

def binary_to_unary(space: ConstrainedSpace) -> UnaryConstrainedSpace:
    """Present a binary space by fibers plus an equivalence relation.

    Requires every pair constraint to be a subdiagonal or a full product of
    the fibers; pairs classifying as anything else, or a non-transitive
    induced relation, are rejected with the offending points.
    """
    if space.k != 2:
        raise InvalidInput("binary_to_unary expects a binary space")
    n = space.n
    fibers = [frozenset(f[0] for f in space.constraint((x,))) for x in range(n)]
    related = [[x == y for y in range(n)] for x in range(n)]
    for x, y in itertools.combinations(range(n), 2):
        pairs = space.constraint_tuple((x, y))
        if all(a == b for a, b in pairs):
            if pairs != frozenset((a, a) for a in fibers[x]):
                raise InvalidInput("pair %r is a proper subdiagonal" % ((x, y),))
            related[x][y] = related[y][x] = True
        elif pairs != frozenset(itertools.product(fibers[x], fibers[y])):
            raise InvalidInput(
                "pair %r is neither a subdiagonal nor the product of its fibers"
                % ((x, y),))
    classes = Congruence.from_blocks(min(y for y in range(n) if related[x][y])
                                     for x in range(n)).blocks
    for x, y in itertools.product(range(n), repeat=2):
        if (classes[x] == classes[y]) != related[x][y]:
            raise InvalidInput("induced relation is not transitive at %r" % ((x, y),))
    a_empty = () in space.constraint(())
    return UnaryConstrainedSpace(space.topology, space.dualizer, fibers, classes, a_empty)


def unary_to_binary(space: UnaryConstrainedSpace) -> ConstrainedSpace:
    """A_{x,y} := A_x x A_y off the equivalence, the diagonal of A_x on it."""
    binary = _Presentation(space)
    family = {frozenset(I): binary.constraint(I)
              for size in range(3) for I in itertools.combinations(range(space.n), size)}
    return ConstrainedSpace(2, space.topology, space.dualizer, family)


def is_constrained_map(values, X, Y, check_continuity: bool = True) -> bool:
    """Constraint reflection (plus continuity, plus the unary equivalence)."""
    values = tuple(values)
    if len(values) != X.n or any(not 0 <= v < Y.n for v in values):
        raise InvalidInput("point map does not match the spaces")
    if check_continuity and not X.topology.is_continuous_map(Y.topology, values):
        return False
    if isinstance(X, UnaryConstrainedSpace) != isinstance(Y, UnaryConstrainedSpace):
        raise InvalidInput("spaces must be of the same kind")
    if isinstance(X, UnaryConstrainedSpace):
        if Y.a_empty and not X.a_empty:
            return False
        for x in range(X.n):
            if not Y.fibers[values[x]] <= X.fibers[x]:
                return False
        for x in range(X.n):
            for y in range(X.n):
                if X.related(x, y) and not Y.related(values[x], values[y]):
                    return False
        return True
    if X.k != Y.k:
        raise InvalidInput("spaces must share the constraint arity")
    for size in range(min(X.k, X.n) + 1):
        for I in itertools.combinations(range(X.n), size):
            if not Y.constraint_tuple(values[p] for p in I) <= X.constraint(I):
                return False
    return True


# --- the Priestley bridge and positive-MV instances -------------------------------

def priestley_from_order(top: FiniteTopology, leq, dl: FiniteAlgebra) -> ConstrainedSpace:
    """Binary 2_DL-constrained space of a reflexive closed binary relation."""
    n = top.n
    if dl.size != 2:
        raise InvalidInput("the Priestley bridge needs the two-element lattice")
    for x in range(n):
        if not leq[x][x]:
            raise InvalidInput("relation must be reflexive")
    if not top.is_closed_relation([mask_of(y for y in range(n) if leq[x][y])
                                   for x in range(n)]):
        raise InvalidInput("relation is not closed in the product")
    family: dict = {frozenset(): {()}}
    for x in range(n):
        family[frozenset((x,))] = {(0,), (1,)}
    for x, y in itertools.combinations(range(n), 2):
        funs = {(0, 0), (1, 1)}
        if not leq[y][x]:
            funs.add((0, 1))
        if not leq[x][y]:
            funs.add((1, 0))
        family[frozenset((x, y))] = funs
    return ConstrainedSpace(2, top, dl, family)


def priestley_to_order(space: ConstrainedSpace):
    """Extract x <= y  iff  (1,0) not in A_{x,y} from a binary 2_DL space:
    over {0,1} that is every pair (a, b) having a <= b, as ``_mv_order`` reads."""
    if space.dualizer.size != 2:
        raise InvalidInput("the Priestley bridge needs the two-element lattice")
    return _mv_order(space)


@dataclass(frozen=True)
class MVPriestleyReport:
    structurally_valid: bool              # subdirect + continuous family
    order_is_partial_order: bool
    subdirect_inclusions: bool
    subdiagonal_iff_equal: bool
    pairwise_extension: bool
    matches_generic: bool | None          # None when the family itself is invalid
    local_extension_cases: bool | None
    local_matches_generic: bool | None

    @property
    def valid(self) -> bool:
        return (self.structurally_valid and self.order_is_partial_order
                and self.subdirect_inclusions and self.subdiagonal_iff_equal
                and self.pairwise_extension and bool(self.matches_generic))


def _mv_order(space) -> list[list[bool]]:
    """x <= y iff every pair (a, b) of A_{x,y} has a <= b."""
    return [[all(a <= b for a, b in space.constraint_tuple((x, y))) for y in range(space.n)]
            for x in range(space.n)]


def mv_priestley_validate(space: ConstrainedSpace,
                          budget: int = DEFAULT_BUDGET) -> MVPriestleyReport:
    """The positive-MV reading of a binary constrained space.

    Extracts the order x <= y iff A_{x,y} lies under the gradedness relation,
    then checks the three structural conditions and the five-case local
    extension schema, cross-checking each verdict against the generic
    machinery (validate + GEP, and the binary local extension property).
    """
    if space.k != 2:
        raise InvalidInput("MV-Priestley validation expects a binary space")
    if "oplus" not in space.dualizer.signature.names:
        raise InvalidInput("MV-Priestley validation expects a positive MV chain")
    n = space.n
    leq = _mv_order(space)
    order_ok = all(leq[x][x] for x in range(n))
    order_ok = order_ok and all(not (leq[x][y] and leq[y][x]) or x == y
                                for x in range(n) for y in range(n))
    order_ok = order_ok and all(not (leq[x][y] and leq[y][z]) or leq[x][z]
                                for x in range(n) for y in range(n) for z in range(n))

    fibers = [frozenset(f[0] for f in space.constraint((x,))) for x in range(n)]
    subdirect_inclusions = True
    for x in range(n):
        for y in range(n):
            pairs = space.constraint_tuple((x, y))
            if ({a for a, _ in pairs} != fibers[x]) or ({b for _, b in pairs} != fibers[y]):
                subdirect_inclusions = False
    subdiag_ok = all(
        (all(a == b for a, b in space.constraint_tuple((x, y)))) == (x == y)
        for x in range(n) for y in range(n))

    gep, _, functions = has_global_extension(space, budget=budget)
    pairwise = True
    for x in range(n):
        for y in range(n):
            for a, b in space.constraint_tuple((x, y)):
                if not any(f[x] == a and f[y] == b for f in functions):
                    pairwise = False
    report = validate_constrained(space)
    mv_side = order_ok and subdirect_inclusions and subdiag_ok and pairwise
    # given a valid family, the three conditions plus the order are exactly
    # separation and global extension in the generic sense
    matches = mv_side == (report.separated and gep) if report.valid else None

    local_cases = local_matches = None
    if report.valid and mv_side:
        local_cases = _mv_local_extension_cases(space, leq, fibers)
        lep, _ = has_local_extension(space, 2, budget=budget)
        local_matches = local_cases == lep
    return MVPriestleyReport(report.valid, order_ok, subdirect_inclusions,
                             subdiag_ok, pairwise, matches, local_cases,
                             local_matches)


def _mv_oriented(space, leq, fibers, x, y):
    """B_{x,y}: the pair constraint in order orientation, free when parallel."""
    if leq[x][y]:
        return space.constraint_tuple((x, y))
    if leq[y][x]:
        return frozenset((b, a) for a, b in space.constraint_tuple((y, x)))
    return frozenset(itertools.product(sorted(fibers[x]), sorted(fibers[y])))


def _mv_local_extension_cases(space, leq, fibers) -> bool:
    """For all triples: (a,b) in B_{x,y} splits through z via some c."""
    n = space.n
    for x, y, z in itertools.permutations(range(n), 3):
        bxy = _mv_oriented(space, leq, fibers, x, y)
        bxz = _mv_oriented(space, leq, fibers, x, z)
        bzy = _mv_oriented(space, leq, fibers, z, y)
        for a, b in bxy:
            if not any((a, c) in bxz and (c, b) in bzy for c in sorted(fibers[z])):
                return False
    return True
