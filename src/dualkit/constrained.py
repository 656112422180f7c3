"""k-ary and unary L-constrained spaces.

A k-ary constrained space is a finite topology plus a continuous subdirect
family of constraints A_I <= L^I for |I| <= k; the unary form replaces the
family by one subuniverse of L per point and a closed equivalence relation.
Constraints are stored for |I| = min(k, n) and |I| <= 1 only (a key of any
other size is rejected); intermediate sizes are derived by projection, which
subdirectness makes unambiguous (validation checks exactly that).

The store is coded.  A local function f on the sorted tuple I is the integer
whose digits in base |L| are f(I[0]), f(I[1]), ..., most significant first.
Codes of one length compare as their digit strings do, so code order is
the lexicographic order of the local functions, and sorting codes sorts
functions.  Each A_I is a frozenset of codes, held once, so the store grows
with the sum of |A_I| and never with |L|^|I|.  ``constraints``,
``constraint()`` and ``constraint_tuple()`` decode on first use and present
A_I as frozensets of tuples aligned with sorted(I); ``_reindex`` reads those
at other points of I.  Validation reads the codes themselves: a projection
takes digits by division (``_project``), the closure kernel reads the codes
as rows, and a pair (a, a) on two points has the code a(|L| + 1).

Every search over local and global functions assigns points in ascending
order and keeps one packed row: a Python int in which point q owns a field
of |L| + 1 bits at offset q(|L| + 1).  The low |L| bits of the field are
q's value mask (bit b: q may still take b), and its top bit is a guard that
stays 0.  Assigning p := v narrows the row by ANDs, written inline in the
two walks (``_extend_all`` and ``ccomp``): for T = {p} and for T = S + {p}
with each nonempty S of at most k-2 points assigned earlier, the extension
row of T at the code of the values on T: its field at q holds the
values A_{T+{q}} allows at q with them, and its fields on T hold all of L,
so the points assigned keep their values.  p is the last point of T, so its
digit is the last of that code.  The points tied to p are then pinned to v
with one more AND, by keep | one << v: keep is full on every other field
and one has bit 0 of every pinned field.  A row has a point without values
exactly when (row + ADD) & GUARD != GUARD, where ADD holds 2^|L| - 1 in
every field and GUARD every guard bit: the add carries into a field's guard
bit exactly when the field is not empty, and never across fields.  The
rows of one T are built from the codes on first use and cached on the
space, so every search on one space shares them; a walk reads p's own table
once, and those of S + {p} (``_step``) only for k >= 3.  The compatible local
functions on I (for ``compatible_local_functions``, the local extension
property and ``local_to_global_verify``) each carry their row, extended
level by level, so g on I extends by j exactly when j's field of its row is
not empty; there local constancy ties p to the points of N(p) and to those
whose neighbourhood holds p.  ``ccomp`` takes the same step depth first
over all points, ties p to the later points of its topological component
(continuity), and backtracks as soon as a later point is left without
values (forward checking).  A unary space is searched through its binary
presentation (``unary_to_binary``), read off the fibers so that no pair
constraint is built: the diagonal of the fiber on equivalent points and the
product of the fibers elsewhere give the same rows, search order and budget
count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Congruence,
    FiniteAlgebra,
    InvalidInput,
    _is_element,
    _unclosed_codes,
    power_index,
    power_tuple,
    unclosed_operation,
)
from .spaces import LSpace
from .terms import TermFunction, _convex_masks, check_near_unanimity
from .topology import FiniteTopology, bits_of, mask_of


def _reindex(funs, I_sorted, xs) -> frozenset:
    """The local functions funs on the sorted tuple I_sorted, read at the
    points xs of I (in any order, repeats allowed)."""
    position = {p: i for i, p in enumerate(I_sorted)}
    at = [position[x] for x in xs]
    return frozenset(tuple(f[i] for i in at) for f in funs)


def _project(codes, length: int, at: tuple, size: int) -> frozenset:
    """The codes of local functions on ``length`` points, read at the
    ascending positions ``at``: each digit taken from the code by division."""
    weights = [size ** (length - 1 - i) for i in at]
    projected = set()
    for c in codes:
        code = 0
        for weight in weights:
            code = code * size + c // weight % size
        projected.add(code)
    return frozenset(projected)


def _wrong_length(I: tuple) -> InvalidInput:
    return InvalidInput("local function of wrong length for %r" % (I,))


def _encode_functions(funs, I: tuple, size: int) -> frozenset:
    """Codes of local functions given as tuples aligned with I."""
    codes = set()
    for f in funs:
        if len(f) != len(I):
            raise _wrong_length(I)
        if any(not 0 <= v < size for v in f):
            raise InvalidInput("local function value outside the carrier")
        codes.add(power_index(size, f))
    return frozenset(codes)


def _given_codes(codes, I: tuple, size: int) -> frozenset:
    """The codes as given; None stands for local functions of the wrong
    length, refused here, where ``_encode_functions`` refuses them."""
    if codes is None:
        raise _wrong_length(I)
    return frozenset(codes)


class ConstrainedSpace:
    """A k-ary constrained space for k >= 2 (immutable after construction).

    ``constraints`` maps each point set I to its local functions, tuples
    aligned with sorted(I).
    """

    __slots__ = ("k", "topology", "dualizer", "_codes", "_derived", "_decoded", "_tables")

    def __init__(self, k: int, topology: FiniteTopology, dualizer: FiniteAlgebra,
                 constraints: dict):
        self._store(k, topology, dualizer, constraints, _encode_functions)

    @classmethod
    def _from_codes(cls, k: int, topology: FiniteTopology, dualizer: FiniteAlgebra,
                    codes: dict) -> "ConstrainedSpace":
        """The space whose constraint on each key I holds the given codes;
        None in place of a key's codes stands for local functions of the
        wrong length, refused where the constructor refuses them."""
        space = object.__new__(cls)
        space._store(k, topology, dualizer, codes, _given_codes)
        return space

    def _store(self, k, topology, dualizer, given, convert):
        if k < 2:
            raise InvalidInput("k-ary constrained spaces require k >= 2; use the unary form")
        n = topology.n
        m = min(k, n)
        order, stored, _ = _key_orders(n, m)
        keyed = {}
        for key, funs in given.items():
            if key not in stored:           # else a stored key as a sorted tuple
                key = frozenset(key)
                if not key <= set(range(n)):
                    raise InvalidInput("constraint key outside the point set")
                if len(key) > k:
                    raise InvalidInput("constraint key larger than k")
                if 1 < len(key) < m:
                    raise InvalidInput("constraint key %r has %d points; stored keys have %d "
                                       "or at most one" % (sorted(key), len(key), m))
                key = tuple(sorted(key))
            keyed[key] = funs
        # only the largest keys must be given: smaller ones are derived, and
        # with no points A_empty holds the empty function when L has a constant
        constant = m == 0 and dualizer.signature.constants
        for I in itertools.combinations(range(n), m):
            if I not in keyed and not constant:
                raise InvalidInput("missing constraint for %r" % list(I))
        size = dualizer.size
        codes = {}
        for I in order:
            if I in keyed:
                codes[I] = convert(keyed[I], I, size)
            elif len(I) < m:
                codes[I] = _derive_by_projection(codes, I, n, m, size)
            else:
                codes[I] = frozenset((0,))          # the empty function
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "dualizer", dualizer)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "_decoded", {})
        # extension rows by point set T, built on first use
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):
        raise AttributeError("ConstrainedSpace is immutable")

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def constraints(self) -> dict:
        """The stored constraints, keyed by frozenset(I), larger keys first."""
        return {frozenset(I): self.constraint(I) for I in self._codes}

    def constraint(self, points) -> frozenset:
        """A_I for any I with |I| <= k, derived by projection if not stored."""
        key = frozenset(points)
        if len(key) > self.k:
            raise InvalidInput("constraint arity exceeds k")
        I = tuple(sorted(key))
        funs = self._decoded.get(I)
        if funs is None:
            size = self.dualizer.size
            funs = self._decoded[I] = frozenset(
                power_tuple(size, len(I), c) for c in self._codes_of(I))
        return funs

    def constraint_tuple(self, xs) -> frozenset:
        """A_{<x1..xl>} in the tuple presentation (repeats allowed)."""
        xs = tuple(xs)
        key_sorted = tuple(sorted(set(xs)))
        return _reindex(self.constraint(key_sorted), key_sorted, xs)

    def _codes_of(self, I: tuple) -> frozenset:
        """A_I as codes, for a sorted tuple I of at most k points."""
        codes = self._codes.get(I)
        if codes is None:
            codes = self._derived.get(I)
            if codes is None:
                codes = self._derived[I] = _derive_by_projection(
                    self._codes, I, self.n, min(self.k, self.n), self.dualizer.size)
        return codes

    def _build_table(self, T: tuple) -> "_Rows":
        """The extension rows of the sorted tuple T: for each code of values
        on T, the packed row whose field at every point j outside T holds
        the values that A_{T+{j}} allows with them (all of L on T itself)."""
        n, size = self.n, self.dualizer.size
        w, full = size + 1, (1 << size) - 1
        blank = 0
        for q in T:
            blank |= full << q * w
        table = _Rows()
        table.blank = blank
        get = table.get
        # the points j between T[at - 1] and T[at] come at position ``at`` of
        # T + {j}, so the code on T drops j's digit, of weight size^(|T| - at)
        for at in range(len(T) + 1):
            head, tail, below = T[:at], T[at:], size ** (len(T) - at)
            for j in range(T[at - 1] + 1 if at else 0, T[at] if tail else n):
                shift = j * w
                for key, mask in _split(self._codes_of(head + (j,) + tail), size, below):
                    table[key] = get(key, blank) | mask << shift
        return table


@functools.lru_cache(maxsize=64)
def _key_orders(n: int, m: int) -> tuple[tuple, frozenset, tuple]:
    """The stored keys of a space on n points whose largest keys have m
    points: larger first, so smaller ones can be derived by projection, and
    lexicographically within one size; the same as a set; and by size, then
    lexicographically, the order ``has_global_extension`` checks them in."""
    order = list(itertools.combinations(range(n), m))
    order += [(x,) for x in range(n)] if m > 1 else []
    order += [()] if m > 0 else []
    return tuple(order), frozenset(order), tuple(sorted(order, key=lambda I: (len(I), I)))


@functools.lru_cache(maxsize=64)
def _split(codes: frozenset, size: int, below: int) -> tuple:
    """The codes split at their digit of weight ``below``: each code with
    that digit dropped, and the mask of the digits it takes there.  Spaces
    share constraint sets (a Priestley space has four pair sets), so the
    split of one set is kept for the next table that reads it."""
    above = below * size
    masks: dict = {}
    for c in codes:
        key = c // above * below + c % below
        masks[key] = masks.get(key, 0) | 1 << c // below % size
    return tuple(masks.items())


class _Rows(dict):
    """Extension rows by code; a code no function carries reads ``blank``."""

    blank = 0

    def __missing__(self, code):
        return self.blank


def _derive_by_projection(stored, I, n, m, size):
    if len(I) >= m:
        raise InvalidInput("cannot derive a constraint of size %d" % len(I))
    rest = [p for p in range(n) if p not in I]
    superset = tuple(sorted(I + tuple(rest[: m - len(I)])))
    base = stored.get(superset)
    if base is None:
        raise InvalidInput("missing constraint for %r" % list(superset))
    return _project(base, m, tuple(superset.index(x) for x in I), size)


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

    Continuity is the openness of every X_abar = {xbar : abar in A_xbar} in
    X^k: A_xbar lies in A_ybar for every ybar in N(x_1) x ... x N(x_k), the
    smallest neighbourhood of xbar (Stong 1966).  ``_family_is_continuous``
    tests only the steps, the ybar that move x_1 to another point of N(x_1).
    A at a permuted tuple is the permuted set, so the steps of coordinate i
    are those of the first at the tuples that list x_i first; setting one
    coordinate after another reaches every ybar of the product by steps, and
    inclusion chains.  Local constancy of every member of every A_I is
    implied and not tested apart: for p, q in I with q in N(p), the step
    moving p onto q from a tuple that lists I with p first reads q twice, so
    the members of A_ybar, and with them those of A_I, agree at p and q.

    Scott continuity of xbar -> A_xbar into Sub(L^k) is equivalent to the
    openness of every X_abar, so it is reported as the same flag; the tests
    check the equivalence against a direct computation over the principal
    upsets of Sub(L^k).
    """
    _check_closed(space)
    subdirect = _is_subdirect(space)
    continuous = _family_is_continuous(space)
    # x and y are separated when A_{x,y} holds a pair (a, b) with a != b; the
    # code of (a, a) is a(|L| + 1), so that is a code off the multiples of |L| + 1
    diagonal = space.dualizer.size + 1
    separated = all(any(c % diagonal for c in space._codes_of(I))
                    for I in itertools.combinations(range(space.n), 2))
    return ConstrainedReport(subdirect, continuous, separated, continuous)


def _check_closed(space: ConstrainedSpace) -> None:
    """InvalidInput unless every stored constraint is a subuniverse; the
    closure kernel reads the stored codes."""
    # many keys hold the same set (a Priestley space has four pair sets at
    # most), and the answer depends on the set alone
    closed = set()
    for I, codes in space._codes.items():
        if (len(I), codes) not in closed:
            if _unclosed_codes(space.dualizer, len(I), codes) is not None:
                raise InvalidInput("constraint for %r is not a subuniverse" % list(I))
            closed.add((len(I), codes))


def _is_subdirect(space: ConstrainedSpace) -> bool:
    """Every projection of every largest stored A_I equals the A_J that
    constraint() derives, so any two stored constraints agree on their
    common points."""
    m, size = min(space.k, space.n), space.dualizer.size
    return all(_project(codes, m, at, size) == space._codes_of(tuple([I[i] for i in at]))
               for I, codes in space._codes.items() if len(I) == m
               for points in range(m) for at in itertools.combinations(range(m), points))


def _family_is_continuous(space: ConstrainedSpace) -> bool:
    """A_xbar lies in A_ybar for every step ybar from xbar: x_1 moved to
    another point y of N(x_1).  The steps of other coordinates are these at
    permuted tuples, and steps chain to all of N(x_1) x ... x N(x_k), so
    this is openness of every X_abar (``validate_constrained``)."""
    n = space.n
    for x in range(n):
        steps = bits_of(space.topology.nbhds[x] & ~(1 << x))
        for rest in itertools.product(range(n), repeat=space.k - 1) if steps else ():
            here = space.constraint_tuple((x,) + rest)
            if not all(here <= space.constraint_tuple((y,) + rest) for y in steps):
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


# --- the narrowing step -----------------------------------------------------------

def _table(space, T: tuple):
    """The extension rows of the sorted tuple T (|T| <= k-1), by the code of
    the values on T: at each point j outside T, the field of the values at
    j that A_{T+{j}} allows with them; all of L on T.  T empty gives the
    fibers, at code 0."""
    table = space._tables.get(T)
    if table is None:
        table = space._tables[T] = space._build_table(T)
    return table


@functools.lru_cache(maxsize=256)
def _layout(n: int, size: int) -> tuple[int, int, int, int]:
    """The packed rows of n points over a carrier of ``size``: the field
    width w = size + 1, the mask of a full field, ADD (2^size - 1 in every
    field) and GUARD (the top bit of every field)."""
    w, full = size + 1, (1 << size) - 1
    ones = 0
    for q in range(n):
        ones |= 1 << q * w
    return w, full, full * ones, ones << size


@functools.lru_cache(maxsize=256)
def _pins(masks: tuple, n: int, size: int) -> tuple[tuple[int, int], ...]:
    """(keep, one) for each point mask: ANDing a row with keep | one << v
    pins those points to v and leaves the rest."""
    w, full, add, _ = _layout(n, size)
    pins = []
    for mask in masks:
        one = 0
        for q in bits_of(mask):
            one |= 1 << q * w
        pins.append((add & ~(full * one), one))
    return tuple(pins)


def _first_empty(row: int, w: int, add: int, guard: int) -> int:
    """The first point whose field in the packed row is empty, for a row
    that has one: adding ADD carries into a field's guard bit exactly when
    the field is not empty, and never into the next field, so
    (row + ADD) & GUARD != GUARD tests for an empty field."""
    empty = ~(row + add) & guard
    return (empty & -empty).bit_length() // w - 1


def _codes_on(columns, count: int, I: tuple, size: int) -> frozenset:
    """The codes on I of ``count`` functions given by their values at each
    point, ``columns[p]``."""
    if not count:
        return frozenset()
    if not I:
        return frozenset((0,))
    codes = columns[I[0]]
    for p in I[1:]:
        codes = [c * size + v for c, v in zip(codes, columns[p])]
    return frozenset(codes)


class _PresentedRows(dict):
    """The extension rows of one point q of ``_Presentation``, built for
    each value a on first use, as ``unary_to_binary``'s pair constraints give
    them: at an equivalent point, a alone if the fiber of the smaller of the
    two points holds it; elsewhere that point's fiber if q's fiber holds a."""

    def __init__(self, space: UnaryConstrainedSpace, q: int, fibers: list[int]):
        super().__init__()
        self.space, self.q, self.fibers = space, q, fibers

    def __missing__(self, a):
        space, q, fibers = self.space, self.q, self.fibers
        size, free = space.dualizer.size, fibers[q] >> a & 1
        w = size + 1
        row = (1 << size) - 1 << q * w
        for j, fiber in enumerate(fibers):
            if j != q:
                if space.related(q, j):
                    row |= (fibers[min(q, j)] & 1 << a) << j * w
                elif free:
                    row |= fiber << j * w
        self[a] = row
        return row


class _Presentation:
    """``unary_to_binary(space)`` as the search reads it: A_I and the rows
    come from the fibers, and no pair constraint is built."""

    k = 2

    def __init__(self, space: UnaryConstrainedSpace):
        self.unary, self.topology, self.n = space, space.topology, space.n
        self.dualizer = space.dualizer
        self.fibers = [mask_of(f) for f in space.fibers]
        self._tables: dict = {}

    def constraint(self, points) -> frozenset:
        """A_I for at most two points, as ``unary_to_binary`` stores it."""
        I, space = tuple(sorted(points)), self.unary
        if not I:
            return frozenset({()} if space.a_empty else ())
        if len(I) == 2 and space.related(*I):
            return frozenset((a, a) for a in space.fibers[I[0]])
        return frozenset(itertools.product(*(sorted(space.fibers[x]) for x in I)))

    def _codes_of(self, I: tuple) -> frozenset:
        """A_I as codes, for a sorted tuple I of at most two points."""
        return frozenset(power_index(self.dualizer.size, f) for f in self.constraint(I))

    def _build_table(self, T: tuple):
        if not T:
            w, fibers = self.dualizer.size + 1, 0
            for j, fiber in enumerate(self.fibers):
                fibers |= fiber << j * w
            table = _Rows()
            table[0] = fibers
            return table
        (q,) = T
        return _PresentedRows(self.unary, q, self.fibers)


def _kary(space):
    """The space a search runs on: a unary space's binary presentation."""
    if isinstance(space, UnaryConstrainedSpace):
        return _Presentation(space)
    return space


@functools.lru_cache(maxsize=4096)
def _subsets(length: int, most: int) -> tuple:
    """The positions of every nonempty subset of at most ``most`` of
    ``length`` positions, by size and then lexicographically."""
    return tuple(positions for size in range(1, min(most, length) + 1)
                 for positions in itertools.combinations(range(length), size))


def _start(space):
    """The compatible local functions on no points, with their rows."""
    if 0 not in space._codes_of(()):
        return [], []
    return [()], [_table(space, ())[0]]


def _step(space, I, j) -> list:
    """The held tables of the step by j after functions on the sorted tuple
    I, with j above I: (S, the table of the points of I at S plus j) for
    every nonempty S of at most k-2 positions of I, so none for k = 2."""
    return [(S, _table(space, tuple([I[i] for i in S]) + (j,)))
            for S in _subsets(len(I), space.k - 2)]


def _held(tables, g, size: int) -> list:
    """The held entries for the function g on I: each table of ``_step``
    with the code of g at its positions S, times |L|."""
    return [(table, power_index(size, [g[i] for i in S]) * size) for S, table in tables]


def _extend_all(space, own, tables, funs, rows, j, pin, most=math.inf):
    """Every compatible extension by j of the functions funs on the sorted
    tuple I (stopping once more than ``most`` are found), and their packed
    rows; with j above I, lexicographic order is kept.  The values g may
    take at j are the set bits of j's field of g's row, and g + (j -> b)
    narrows that row at once: AND in j's own table ``own[j]`` at b, each
    held table of ``_step(space, I, j)`` at its base (``_held``) plus b,
    and keep | one << b, where ``pin`` = (keep, one)."""
    size = space.dualizer.size
    shift, full = j * (size + 1), (1 << size) - 1
    mine, (keep, one) = own[j], pin
    extended, narrowed = [], []
    for g, row in zip(funs, rows):
        held = _held(tables, g, size) if tables else ()
        for b in bits_of(row >> shift & full):
            extended.append(g + (b,))
            new = row & mine[b]
            for table, base in held:
                new &= table[base + b]
            narrowed.append(new & (keep | one << b))
        if len(extended) > most:
            break
    return extended, narrowed


def _local_functions(space, max_size: int, budget=math.inf):
    """(I, compatible local functions on I, their rows) for every I of at
    most max_size points, by size and then lexicographically; the functions
    on I are those on I[:-1] extended by I[-1], so each list is in
    lexicographic order.  Local constancy pins the points tied to I[-1]
    (``FiniteTopology.ties``).

    ``budget`` is the local extension property's.  That charges each
    function on I and its n - |I| extension tests and checks the count at
    every function, so it raises at the first function on I whenever the
    functions on I take the count past the budget.  BudgetExceeded is
    raised here as soon as that is certain, before the functions on I and
    their rows are all built."""
    n = space.n
    pins = _pins(space.topology.ties, n, space.dualizer.size)
    level = {(): _start(space)}
    spent = len(level[()][0]) * (1 + n)
    yield ((), *level[()])
    own = [_table(space, (j,)) for j in range(n)] if max_size else []
    for points in range(1, max_size + 1):
        previous, level = level, {}
        for I in itertools.combinations(range(n), points):
            head, j = I[:-1], I[-1]
            tables = _step(space, head, j) if space.k > 2 else ()
            most = max(budget - spent - (n - points), 0)
            funs, rows = _extend_all(space, own, tables, *previous[head], j, pins[j], most)
            if len(funs) > most:
                raise BudgetExceeded("local extension search exceeds budget")
            spent += len(funs) * (1 + n - points)
            if points < max_size:           # the last level is not extended
                level[I] = funs, rows
            yield I, funs, rows


def _points(space, points) -> tuple:
    """The points as a tuple; InvalidInput unless each is a point of the
    space and none repeats."""
    points = tuple(points)
    for i, p in enumerate(points):
        if not _is_element(p, space.n):
            raise InvalidInput("point %r outside the space" % (p,))
        if p in points[:i]:
            raise InvalidInput("point %r repeated" % (p,))
    return points


def compatible_local_functions(space, points_sorted) -> list[tuple[int, ...]]:
    """The compatible local functions on a sorted tuple of points, in
    lexicographic order."""
    space = _kary(space)
    I = _points(space, points_sorted)
    if list(I) != sorted(I):
        raise InvalidInput("points %r are not in ascending order" % (I,))
    pins = _pins(space.topology.ties, space.n, space.dualizer.size)
    own = {j: _table(space, (j,)) for j in I}
    funs, rows = _start(space)
    for i, j in enumerate(I):
        tables = _step(space, I[:i], j) if space.k > 2 else ()
        funs, rows = _extend_all(space, own, tables, funs, rows, j, pins[j])
    return funs


# --- compatible global functions ---------------------------------------------------

def ccomp(space, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """The continuous compatible global functions, in lexicographic order.

    A depth-first search over the points in ascending order, extending a
    function on the points below j by j with the narrowing ``_extend_all``
    does for local functions, inline: j's own and held tables (``_step``,
    ``_held``) are read on the first visit to depth j, and assigning j := v
    narrows the packed row by each constraint on j, at most k-2 earlier
    points and one more point (for a unary space, the pair constraint of its binary
    presentation carries the equivalence), and pins to v the later points of
    j's topological component (``FiniteTopology.component_masks``), which is
    the continuity requirement.  Pinning the whole component at its least
    point, not only the points local constancy ties to j, keeps a point
    whose links to earlier points run through later ones from being tried at
    every value.  A point left without values, found by one add and one AND,
    ends the branch (forward checking).  Every value tried
    counts one unit of ``budget``; BudgetExceeded once the count passes it.
    """
    space = _kary(space)
    n, size = space.n, space.dualizer.size
    w, full, add, guard = _layout(n, size)
    pins = _pins(tuple([component >> j + 1 << j + 1
                        for j, component in enumerate(space.topology.component_masks)]), n, size)
    own, steps = [], []     # each point's own and held tables, on the first visit to its depth
    out = []
    tried = 0

    def extend(h, row):
        nonlocal tried
        j = len(h)
        if j == n:
            out.append(h)
            return
        if j == len(own):
            own.append(_table(space, (j,)))
            steps.append(_step(space, range(j), j) if space.k > 2 else ())
        mine, tables, (keep, one) = own[j], steps[j], pins[j]
        held = _held(tables, h, size) if tables else ()
        for v in bits_of(row >> j * w & full):
            tried += 1
            if tried > budget:
                raise BudgetExceeded("ccomp search exceeds budget")
            narrowed = row & mine[v]
            for table, base in held:
                narrowed &= table[base + v]
            narrowed &= keep | one << v
            # an assigned point keeps the value it took, which every later
            # assignment allowed, so an empty field is a later point without
            # values; adding ADD leaves some guard bit clear exactly then
            if (narrowed + add) & guard == guard:
                extend(h + (v,), narrowed)

    for h, row in zip(*_start(space)):
        extend(h, row)
    return out


def func(space, budget: int = DEFAULT_BUDGET) -> LSpace:
    """Wrap the space's topology with its continuous compatible functions.

    They are closed when every constraint is a subuniverse; reading Comp X
    tabulates it, and raises InvalidInput if they are not."""
    functions = frozenset(ccomp(space, budget=budget))
    return LSpace._from_trusted(space.topology, space.dualizer, functions, None)


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
    m, size = min(k, n), X.dualizer.size
    columns = list(zip(*functions))
    family = {I: _codes_on(columns, len(functions), I, size)
              for points in {m, 0, 1} for I in itertools.combinations(range(n), points)}
    return ConstrainedSpace._from_codes(k, X.topology, X.dualizer, family)


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
    size = space.dualizer.size
    columns = list(zip(*functions))
    # code order is lexicographic, so the least missing code is the first
    # missing local function
    for I in _key_orders(space.n, min(space.k, space.n))[2]:
        allowed = space._codes[I]
        covered = _codes_on(columns, len(functions), I, size)
        # ccomp narrows by every constraint on at most k points, so covered
        # lies in allowed, and the counts decide
        if len(covered) != len(allowed):
            return False, (I, power_tuple(size, len(I), min(allowed - covered))), functions
    return True, None, functions


def has_local_extension(space, n_arity: int, budget: int = DEFAULT_BUDGET):
    """n-ary local extension property: every compatible local function on at
    most n points extends by any one further point.  Returns (flag, witness)
    with witness = (points, new point, local function).  The enumerated local
    functions plus the extension tests may number at most ``budget``.  The
    arity must be at least 0; arity 0 checks the empty function."""
    if n_arity < 0:
        raise InvalidInput("local extension arity must be >= 0")
    space = _kary(space)
    n = space.n
    w, _, add, guard = _layout(n, space.dualizer.size)
    work = 0
    for I, funs, rows in _local_functions(space, min(n_arity, n), budget):
        work += len(funs)
        for g, row in zip(funs, rows):
            work += n - len(I)          # the extension tests of g
            if work > budget:
                raise BudgetExceeded("local extension search exceeds budget")
            # g's own values stay in the fields of I, so an empty field lies
            # outside I
            if (row + add) & guard != guard:
                return False, (I, _first_empty(row, w, add, guard), g)
    return True, None


def possible_extensions(space, points_sorted, fun, y: int) -> frozenset:
    """M_{f,y}: the values b in y's fiber with f + (y -> b) in A_{I+{y}},
    for f on I with |I| <= k-1 (k = 2 for a unary space)."""
    space = _kary(space)
    points_sorted, fun, size = _points(space, points_sorted), tuple(fun), space.dualizer.size
    if len(points_sorted) > space.k - 1:
        raise InvalidInput("possible_extensions needs |I| <= k-1")
    if not _is_element(y, space.n):
        raise InvalidInput("extension point %r outside the space" % (y,))
    if y in points_sorted:
        raise InvalidInput("extension point must lie outside I")
    if len(fun) != len(points_sorted):
        raise InvalidInput("local function of wrong length for %r" % (points_sorted,))
    for v in fun:
        if not _is_element(v, size):
            raise InvalidInput("local function value %r outside the carrier" % (v,))
    I, f = zip(*sorted(zip(points_sorted, fun))) if points_sorted else ((), ())
    row = _table(space, I)[power_index(size, f)] & _table(space, ())[0]
    return frozenset(bits_of(row >> y * (size + 1) & (1 << size) - 1))


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
    possible-extension set (relative to its fiber) is asserted first: the
    walk over the local functions collects the distinct (set, fiber) mask
    pairs, and one batch decides them.  That lemma assumes a family of
    subuniverses that is subdirect, so a set that is not convex raises
    InvalidInput naming the first hypothesis the family fails, and
    AssertionError only if it meets both.
    """
    if not isinstance(space, ConstrainedSpace):
        raise InvalidInput("local_to_global_verify needs a k-ary constrained space")
    if not check_near_unanimity(space.dualizer, m):
        raise InvalidInput("local_to_global_verify needs a near-unanimity function")
    if m.arity != space.k + 1:
        raise InvalidInput("near-unanimity arity must be k+1")
    k, L = space.k, space.dualizer
    w, full = L.size + 1, (1 << L.size) - 1
    fibers = _table(space, ())[0]
    pairs: dict[tuple[int, int], None] = {}     # distinct (M mask, fiber mask), in order
    for I, funs, _ in _local_functions(space, k - 1):
        table = _table(space, I)
        for g in funs:
            # the possible-extension sets of g, one per point y outside I
            row = table[power_index(L.size, g)] & fibers
            for y in range(space.n):
                if y not in I:
                    pairs[row >> y * w & full, fibers >> y * w & full] = None
    if not _convex_masks(L, m, list(pairs)).all():
        _check_closed(space)
        if not _is_subdirect(space):
            raise InvalidInput("constraint family is not subdirect: "
                               "the convexity lemma does not apply")
        raise AssertionError("possible-extension set is not convex: lemma violated")
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
    family: dict = {(): frozenset((0,))}
    for x in range(n):
        family[x,] = frozenset((0, 1))
    for x, y in itertools.combinations(range(n), 2):
        family[x, y] = _PRIESTLEY_PAIRS[bool(leq[y][x]), bool(leq[x][y])]
    return ConstrainedSpace._from_codes(2, top, dl, family)


# A_{x,y} by (y <= x, x <= y), as the codes 2a + b of its pairs (a, b): the
# diagonal 0 and 3, then (0, 1) unless y <= x and (1, 0) unless x <= y
_PRIESTLEY_PAIRS = {(False, False): frozenset((0, 1, 2, 3)),
                    (False, True): frozenset((0, 1, 3)),
                    (True, False): frozenset((0, 2, 3)),
                    (True, True): frozenset((0, 3))}


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
    """x <= y iff every pair (a, b) of A_{x,y} has a <= b.  For x < y the
    code of (a, b) is a|L| + b, so both directions are read off its digits."""
    n, size = space.n, space.dualizer.size
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in itertools.combinations(range(n), 2):
        codes = space._codes_of((x, y))
        leq[x][y] = all(c // size <= c % size for c in codes)
        leq[y][x] = all(c % size <= c // size for c in codes)
    return leq


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
