"""Finite algebras as total operation tables.

Everything downstream (spectra, clones, constrained spaces) reduces to a
handful of primitives on tabulated algebras: subuniverse generation, finite
powers, homomorphism enumeration, congruences and quotients, and membership
in the prevariety generated by a fixed dualizing algebra.

Elements are dense indices ``0..n-1``; human-readable labels live in the
catalog and in file formats, never here.  All values are immutable after
construction and all operations are pure.

A vector of length l over L is the element of the power L**l numbered by
its code, the vector's digits in base |L|.  While the power's carrier and
tables fit the block cap, ``_power`` builds it once per algebra and length,
and short vectors are handled as its elements.  They close with the element
closure of ``generate_subalgebra`` (``_closure``: a mask over the carrier
grown by ``_rounds``, whose rounds are also ``_HomPlan``'s stages), and
``_images`` looks them up with one gather per stack of the power's tables.
``_images`` serves the closedness test ``unclosed_operation`` (and
``_unclosed_codes``, which constrained-space validation gives the stored
codes) and, through ``_tables_on``, the table
building in L-space validation (which keeps the tables as Comp X),
``algebra_from_vectors`` and ``subalgebra``.  Longer vectors take the row
kernels on sorted codes: ``_close`` closes them in semi-naive rounds, and
``_row_images`` looks them up with ``searchsorted``.

An algebra stores its tables in one form, built and validated once by the
constructor: read-only int64 arity stacks (``_stacks``), the tables of each
arity stacked into one array of shape (operations,) + (n,)*arity, all of
them views of one byte string that also serves as the equality and hash
key.  Producers hand their int64 arrays straight to the constructor, and
``tables``, the tuples of the public API, is derived on first read.
Evaluating an operation on all argument tuples reads the stacks.  Argument
tuples are never materialized; an algebra's own tables are indexed by
broadcasting (``np.ix_`` for a map's values, outer products for masks and
stages).  The stacks serve both closures, the homomorphism test, hom
enumeration, quotient tables and congruence generation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

#: Refuse to materialize carriers larger than this unless told otherwise.
DEFAULT_BUDGET = 10**6


class InvalidInput(ValueError):
    """Rejected input: a precondition on arguments does not hold."""


class BudgetExceeded(RuntimeError):
    """A requested construction exceeds the configured size budget."""


@dataclass(frozen=True)
class Signature:
    """An ordered list of (operation symbol, arity) pairs; names unique."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise InvalidInput("duplicate operation symbols: %r" % (names,))
        for name, arity in self.ops:
            if arity < 0:
                raise InvalidInput("negative arity for %r" % name)

    def arity(self, name: str) -> int:
        for op, arity in self.ops:
            if op == name:
                return arity
        raise InvalidInput("unknown operation symbol %r" % name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(name for name, arity in self.ops if arity == 0)

    def restrict(self, names) -> "Signature":
        keep = set(names)
        unknown = keep - set(self.names)
        if unknown:
            raise InvalidInput("unknown operation symbols %r" % sorted(unknown))
        return Signature(tuple(op for op in self.ops if op[0] in keep))


class FiniteAlgebra:
    """A finite algebra: carrier ``0..size-1`` plus one flat table per symbol.

    Tables are row-major in the argument tuple (mixed-radix with the first
    argument most significant).  A size-0 algebra is permitted exactly when
    the signature has no constants.  Any sequence or array of elements is
    accepted as a table; the algebra stores them as int64 arity stacks
    (``_stacks``) and derives ``tables`` from them on first read.
    """

    __slots__ = ("signature", "size", "_key", "_arity", "_flat", "_stacks", "_tables", "_powers")

    def __init__(self, signature: Signature, size: int, tables: dict):
        if size < 0:
            raise InvalidInput("negative size")
        if size == 0 and signature.constants:
            raise InvalidInput("empty algebra requires a constant-free signature")
        if set(tables) != set(signature.names):
            raise InvalidInput("tables do not match signature symbols")
        # the tables' one stored form: an int64 array over these bytes, which
        # also key equality and hashing, since equal signatures lay it out alike
        groups = _groups(signature)
        data = _table_bytes(signature, groups, size, tables)
        flat, start, stacks, flats = np.frombuffer(data, dtype=np.int64), 0, [], {}
        for arity, names in groups:
            cells = size**arity
            for name in names:
                flats[name] = flat[start:start + cells]
                start += cells
            if arity:
                stack = flat[start - len(names) * cells:start]
                stacks.append((names, stack.reshape((len(names),) + (size,) * arity)))
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_key", (signature, size, data))
        object.__setattr__(self, "_arity", dict(signature.ops))
        # each symbol's table as a flat view
        object.__setattr__(self, "_flat", flats)
        # the non-constant operations grouped by arity, ascending: (names,
        # tables) pairs where tables has shape (len(names),) + (size,)*arity
        object.__setattr__(self, "_stacks", stacks)
        # the tuple tables and the small powers by exponent, built on first
        # use (tables, _power)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_powers", None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAlgebra is immutable")

    def __eq__(self, other):
        return isinstance(other, FiniteAlgebra) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FiniteAlgebra(size=%d, ops=%r)" % (self.size, list(self.signature.names))

    @property
    def tables(self) -> dict:
        """Each symbol's table as a tuple of ints, in signature order."""
        if self._tables is None:
            object.__setattr__(self, "_tables", {name: tuple(self._flat[name].tolist())
                                                 for name in self.signature.names})
        return self._tables

    def apply(self, name: str, *args: int) -> int:
        """Apply a basic operation to element indices."""
        arity = self._arity.get(name)
        if arity is None:
            raise InvalidInput("unknown operation symbol %r" % name)
        if len(args) != arity:
            raise InvalidInput("%r expects %d arguments, got %d" % (name, arity, len(args)))
        index = 0
        for a in args:
            index = index * self.size + a
        return self._flat[name].item(index)

    @property
    def elements(self) -> range:
        return range(self.size)


@functools.lru_cache(maxsize=256)
def _groups(signature: Signature) -> tuple:
    """The symbols grouped by arity, ascending, as (arity, names) pairs with
    names in signature order: the order of the tables in an algebra's bytes."""
    groups: dict[int, list[str]] = {}
    for name, arity in signature.ops:
        groups.setdefault(arity, []).append(name)
    return tuple((arity, tuple(names)) for arity, names in sorted(groups.items()))


def _table_bytes(signature: Signature, groups: tuple, size: int, tables: dict) -> bytes:
    """The bytes of one int64 array holding the tables in ``groups`` order.
    InvalidInput at the first table of the wrong length or entry that is not
    an element (``_is_element``), in signature order."""
    arrays = []
    try:
        for arity, names in groups:
            for name in names:
                table = np.asarray(tables[name])
                if table.dtype.kind != "i" or table.shape != (size**arity,):
                    raise ValueError
                arrays.append(table)
        data = np.concatenate(arrays, dtype=np.int64) if arrays else np.zeros(0, dtype=np.int64)
        # one range check for all: a negative entry read unsigned is huge
        if not len(data) or data.view(np.uint64).max() < size:
            return data.tobytes()
    except (ValueError, OverflowError):     # not integers, or ragged rows
        pass
    # some table is not of integers in range: check each entry, as given
    checked = {}
    for name, arity in signature.ops:
        table = tables[name]
        if not isinstance(table, (np.ndarray, list, tuple)):
            table = list(table)
        if len(table) != size**arity:
            raise InvalidInput("table for %r has %d entries, expected %d"
                               % (name, len(table), size**arity))
        entries = table.tolist() if isinstance(table, np.ndarray) else table
        for value in entries:
            if not _is_element(value, size):
                if isinstance(value, np.generic):
                    value = value.item()
                raise InvalidInput("table entry %r out of range for %r" % (value, name))
        checked[name] = [operator.index(value) for value in entries]
    return np.array([v for _, names in groups for name in names for v in checked[name]],
                    dtype=np.int64).tobytes()


@dataclass(frozen=True)
class ElementMap:
    """A total map of element indices between two algebras (set level)."""

    domain: FiniteAlgebra
    codomain: FiniteAlgebra
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.size:
            raise InvalidInput("map length does not match domain size")
        for value in self.values:
            if not _is_element(value, self.codomain.size):
                raise InvalidInput("map value %r outside codomain" % (value,))

    def __call__(self, element: int) -> int:
        return self.values[element]

    def is_homomorphism(self) -> bool:
        A, B = self.domain, self.codomain
        if A.signature != B.signature:
            raise InvalidInput("algebras must share a signature")
        h = np.array(self.values, dtype=np.int64)
        for name in A.signature.constants:
            if h[A.apply(name)] != B.apply(name):
                return False
        for (_, tables), (_, b_tables) in zip(A._stacks, B._stacks):
            args = np.ix_(*(h,) * (tables.ndim - 1))
            if not np.array_equal(h[tables], b_tables[(slice(None),) + args]):
                return False
        return True

    def compose(self, inner: "ElementMap") -> "ElementMap":
        """self after inner (inner's codomain must be self's domain)."""
        if inner.codomain is not self.domain and inner.codomain != self.domain:
            raise InvalidInput("composition mismatch")
        return ElementMap(inner.domain, self.codomain,
                          tuple(self.values[v] for v in inner.values))

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.codomain.size


def _find(parent: list, x: int) -> int:
    """Root of x in the union-find forest ``parent``, halving the path to it."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class Congruence:
    """A compatible partition of a carrier, as a block-index vector.

    Blocks are numbered by first occurrence, so equal partitions compare
    equal.  Compatibility is not checked here; constructors in this module
    either guarantee it or validate explicitly.
    """

    blocks: tuple[int, ...]

    @staticmethod
    def from_blocks(blocks) -> "Congruence":
        canon, seen = [], {}
        for b in blocks:
            if b not in seen:
                seen[b] = len(seen)
            canon.append(seen[b])
        return Congruence(tuple(canon))

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    def same(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def leq(self, other: "Congruence") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        rep = {}
        for x, b in enumerate(self.blocks):
            if b in rep:
                if other.blocks[x] != other.blocks[rep[b]]:
                    return False
            else:
                rep[b] = x
        return True

    def meet(self, other: "Congruence") -> "Congruence":
        return Congruence.from_blocks(list(zip(self.blocks, other.blocks)))

    def join(self, other: "Congruence") -> "Congruence":
        # Transitive closure of the union; for congruences this is again one.
        n = len(self.blocks)
        parent = list(range(n))
        for theta in (self, other):
            rep = {}
            for x, b in enumerate(theta.blocks):
                if b in rep:
                    parent[_find(parent, x)] = _find(parent, rep[b])
                else:
                    rep[b] = x
        return Congruence.from_blocks(_find(parent, x) for x in range(n))


def identity_congruence(A: FiniteAlgebra) -> Congruence:
    return Congruence(tuple(range(A.size)))


def total_congruence(A: FiniteAlgebra) -> Congruence:
    return Congruence(tuple(0 for _ in A.elements))


# --- the vector-closure kernel ------------------------------------------------
#
# Vectors over an algebra A are the rows of an int64 array.  An operation of
# arity r is applied to a whole block of argument tuples at once by indexing
# its table, reshaped to (n,)*r, with r row arrays broadcast against each
# other.  Rows are compared through their codes (``_codes``), one exact
# integer per row that orders rows lexicographically.

#: Cap on the cells (rows x operations x length) of one candidate block, so
#: memory stays bounded however large |known|**arity grows; also the most
#: cells (carrier and non-constant tables) of a power that ``_power`` caches.
_BLOCK_CELLS = 1 << 16


def _product_stack(tables, sizes, arity: int) -> np.ndarray:
    """The table of one operation of the given arity on a product, from each
    factor's: ``tables[i]`` holds factor i's, (sizes[i],)*arity entries.  The
    result has shape (prod(sizes),)*arity, a product element numbered by its
    coordinates in mixed radix, the first most significant."""
    k = len(sizes)
    # argument j's coordinate i is axis j*k + i, so each factor's table,
    # weighted by its place value, varies along its own axes only
    total = np.zeros((1,) * (arity * k), dtype=np.int64)
    for i, (table, size) in enumerate(zip(tables, sizes)):
        shape = [1] * (arity * k)
        shape[i::k] = [size] * arity
        total = total + math.prod(sizes[i + 1:]) * np.asarray(table, dtype=np.int64).reshape(shape)
    return total.reshape((math.prod(sizes),) * arity)


def _power(A: FiniteAlgebra, exponent: int):
    """A**exponent, or None when its carrier and tables would hold more than
    ``_BLOCK_CELLS`` cells.  Built once per algebra and exponent and shared;
    A**1 is A.  A vector over A is the element numbered by its code
    (``_codes``), so codes ascend as vectors do lexicographically."""
    size = A.size ** exponent
    if size + sum(size**arity for _, arity in A.signature.ops if arity) > _BLOCK_CELLS:
        return None
    if exponent == 1:
        return A
    if A._powers is None:
        object.__setattr__(A, "_powers", {})
    if exponent not in A._powers:
        A._powers[exponent] = (direct_product([A] * exponent) if exponent else
                               FiniteAlgebra(A.signature, 1, dict.fromkeys(A.signature.names,
                                                                           np.zeros(1, dtype=np.int64))))
    return A._powers[exponent]


def _codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row's code in base n, first column most significant (dtype of ``_radix``)."""
    return rows @ _radix(n, rows.shape[1])


def _decode(codes: np.ndarray, n: int, length: int) -> np.ndarray:
    """The int64 rows of the given codes; the inverse of ``_codes``."""
    return (codes[:, None] // _radix(n, length) % n).astype(np.int64, copy=False)


def _rows(vectors: list, length: int) -> np.ndarray:
    """Vectors of one length as int64 rows; the shape is explicit so that
    no vectors, or vectors of length 0, keep it."""
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), length)


def _is_element(x, size: int) -> bool:
    """Whether x is an integer (one ``operator.index`` takes) in 0..size-1."""
    try:
        return 0 <= operator.index(x) < size
    except TypeError:
        return False


def _checked(L: FiniteAlgebra, length: int, vectors, what: str) -> list[tuple[int, ...]]:
    """The vectors as tuples; InvalidInput, naming them ``what``, at the
    first one of another length or with an entry that is not an element of L."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != length:
            raise InvalidInput("%s of wrong length" % what)
        if not all(_is_element(x, L.size) for x in v):
            raise InvalidInput("%s outside carrier" % what)
    return vectors


@functools.lru_cache(maxsize=256)
def _radix(n: int, length: int) -> np.ndarray:
    """Place values n**(length-1-c), one per column c.  int64 while every
    code (below n**length) fits one, else object (exact Python ints)."""
    dtype = np.int64 if n**length <= 2**63 else object
    weights = np.array([n ** (length - 1 - c) for c in range(length)], dtype=dtype)
    weights.flags.writeable = False
    return weights


def _search(ordered: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each code's index in the ascending array ``ordered``, or -1 if absent."""
    spot = np.searchsorted(ordered, codes)
    found = ordered.take(spot, mode="clip") == codes if len(ordered) else False
    return np.where(found, spot, -1)


def _grid_chunks(dims, limit):
    """Slices covering the grid ``dims`` in row-major order, at most ``limit``
    cells each (one cell at least)."""
    inner, axis = 1, len(dims)
    while axis > 0 and inner * dims[axis - 1] <= limit:
        axis -= 1
        inner *= dims[axis]
    if axis == 0:
        yield (slice(None),) * len(dims)
        return
    step = max(1, limit // inner)
    tail = (slice(None),) * (len(dims) - axis)
    for head in itertools.product(*(range(d) for d in dims[:axis - 1])):
        fixed = tuple(slice(i, i + 1) for i in head)
        for s in range(0, dims[axis - 1], step):
            yield fixed + (slice(s, s + step),) + tail


def _pointwise(tables, parts, cells):
    """Values of the stacked ``tables`` on every tuple of rows drawn from
    parts[0] x ... x parts[r-1]: row blocks of about ``cells`` cells in
    row-major argument order (operation outermost within a block)."""
    r = len(parts)
    length = parts[0].shape[1]
    dims = [len(part) for part in parts]
    if not all(dims):
        return
    for chunk in _grid_chunks(dims, max(1, cells // (len(tables) * max(length, 1)))):
        args = [slice(None)]
        for q, (part, s) in enumerate(zip(parts, chunk)):
            x = part[s]
            args.append(x.reshape((1,) * q + (len(x),) + (1,) * (r - 1 - q) + (length,)))
        out = tables[tuple(args)]
        yield out.reshape(math.prod(out.shape[:-1]), length)


def _close(A: FiniteAlgebra, rows: np.ndarray, budget: int) -> np.ndarray:
    """The closure of ``rows`` (distinct vectors over A) under A's
    non-constant operations, sorted lexicographically.

    Semi-naive rounds on sorted codes: with old the codes known before the
    last round and delta the codes it added, position p of an r-ary
    operation draws from old^p x delta x known^(r-1-p), so each argument
    tuple is tried once.  Each block's codes not yet known are merged as it
    arrives; BudgetExceeded as soon as more than ``budget`` are known.
    """
    n, length = A.size, rows.shape[1]
    known = np.unique(_codes(rows, n))
    old, delta = known[:0], known
    while len(delta):
        old_rows, delta_rows, known_rows = (_decode(c, n, length) for c in (old, delta, known))
        fresh = known[:0]
        for _, tables in A._stacks:
            r = tables.ndim - 1
            for p in range(r):
                parts = [old_rows] * p + [delta_rows] + [known_rows] * (r - 1 - p)
                for block in _pointwise(tables, parts, _BLOCK_CELLS):
                    codes = _codes(block, n)
                    codes = codes[_search(known, codes) < 0]
                    if len(codes):
                        fresh = np.union1d(fresh, codes)
                        if len(known) + len(fresh) > budget:
                            raise BudgetExceeded("vector closure exceeds budget %d" % budget)
        old, delta, known = known, fresh, np.union1d(known, fresh)
    return _decode(known, n, length)


def _images(A: FiniteAlgebra, rows: np.ndarray):
    """Each operation's pointwise values on rows^arity, looked up in ``rows``.

    Yields (name, positions) pieces: one operation's pieces come in
    row-major argument order, but operations interleave.  A position is -1
    where the value is not a row.  Rows are vectors over A; those that are
    elements of a power ``_power`` caches are looked up by their codes, one
    gather per stack of the power's tables, longer ones by ``_row_images``.
    """
    # both paths stay: looking every row up by _row_images cost criteria-algebra 1.08x
    power = _power(A, rows.shape[1])
    if power is None:
        yield from _row_images(A, rows)
        return
    codes = _codes(rows, A.size)
    position = np.full(power.size, -1, dtype=np.int64)
    position[codes] = np.arange(len(codes))
    constants = A.signature.constants
    if constants:
        found = position[[power.apply(name) for name in constants]]
        yield from zip(constants, found.reshape(-1, 1))
    for names, tables in power._stacks:
        found = position[tables[(slice(None),) + np.ix_(*(codes,) * (tables.ndim - 1))]]
        yield from zip(names, found.reshape(len(names), -1))


def _row_images(A: FiniteAlgebra, rows: np.ndarray):
    """``_images`` on rows of any length, through codes and ``searchsorted``.
    A repeated row is found at its first position."""
    length = rows.shape[1]
    codes = _codes(rows, A.size)
    # a code that is absent, at index -1, reads the -1 appended to the order
    order = np.append(np.argsort(codes, kind="stable"), -1)
    ordered = codes[order[:-1]]
    cells = max(_BLOCK_CELLS, rows.size)

    def blocks():
        constants = A.signature.constants
        if constants:
            values = np.array([[A.apply(name)] for name in constants], dtype=np.int64)
            yield constants, np.repeat(values, length, axis=1)
        for names, tables in A._stacks:
            for block in _pointwise(tables, [rows] * (tables.ndim - 1), cells):
                yield names, block

    for names, block in blocks():
        positions = order[_search(ordered, _codes(block, A.size))]
        share = len(positions) // len(names)
        for i, name in enumerate(names):
            yield name, positions[i * share:(i + 1) * share]


def _first_in_signature(A: FiniteAlgebra, names) -> str | None:
    return next((name for name in A.signature.names if name in names), None)


def unclosed_operation(L: FiniteAlgebra, length: int, vectors) -> str | None:
    """The first operation, in signature order, under which the vectors over
    L are not closed (a constant when its constant vector is missing), or
    None for a subuniverse of L**length."""
    return _unclosed(L, _rows(_checked(L, length, vectors, "vector"), length))


def _unclosed_codes(L: FiniteAlgebra, length: int, codes) -> str | None:
    """``unclosed_operation`` on the vectors given by their codes (each
    below |L|**length), read into rows by arithmetic, with no tuple built."""
    codes = np.fromiter(codes, dtype=_radix(L.size, length).dtype, count=len(codes))
    return _unclosed(L, _decode(codes, L.size, length))


def _unclosed(L: FiniteAlgebra, rows: np.ndarray) -> str | None:
    return _first_in_signature(L, {name for name, positions in _images(L, rows)
                                   if (positions < 0).any()})


def _tables_on(A: FiniteAlgebra, rows: np.ndarray):
    """Each operation's table on the rows, as an array of positions in
    ``rows``, and the first operation in signature order whose values leave
    them (else None)."""
    pieces: dict[str, list[np.ndarray]] = {name: [] for name in A.signature.names}
    for name, positions in _images(A, rows):
        pieces[name].append(positions)
    tables = {name: np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
              for name, parts in pieces.items()}
    return tables, _first_in_signature(A, {name for name, table in tables.items()
                                           if (table < 0).any()})


def _rounds(stacks, known: np.ndarray):
    """Close the boolean mask ``known`` over a carrier under the operations
    of ``stacks`` (its algebra's ``_stacks``), in place, one round at a time.

    A round applies every operation to all argument tuples of elements known
    when it starts (a pass over each whole table) and yields the elements it
    adds, ascending; the rounds end with the first one that adds nothing.
    """
    while True:
        reached = np.zeros(len(known), dtype=bool)
        for _, tables in stacks:
            mask = functools.reduce(np.logical_and.outer, [known] * (tables.ndim - 1))
            reached[tables[:, mask]] = True
        fresh = np.flatnonzero(reached & ~known)
        if not len(fresh):
            return
        known[fresh] = True
        yield fresh


def _closure(A: FiniteAlgebra, seed: list, budget: int | None = None) -> np.ndarray:
    """The least subuniverse of A holding the elements ``seed`` and all
    constants, as a mask over the carrier.  BudgetExceeded once a round
    takes it past ``budget`` elements, so only a closure that adds elements
    to the seed can exceed it."""
    known = np.zeros(A.size, dtype=bool)
    known[np.array(seed + [A.apply(name) for name in A.signature.constants],
                   dtype=np.int64)] = True
    count = np.count_nonzero(known)
    for fresh in _rounds(A._stacks, known):
        count += len(fresh)
        if budget is not None and count > budget:
            raise BudgetExceeded("vector closure exceeds budget %d" % budget)
    return known


def generate_subalgebra(A: FiniteAlgebra, seed) -> frozenset:
    """Least subuniverse of A containing ``seed`` and all constants."""
    seed = list(seed)
    for s in seed:
        if not _is_element(s, A.size):
            raise InvalidInput("seed element %r outside carrier" % (s,))
    return frozenset(np.flatnonzero(_closure(A, seed)).tolist())


def minimal_generating_set(A: FiniteAlgebra) -> tuple[int, ...]:
    """Small generating set, grown greedily from the constants closure."""
    return _plan(A, None).gens


def subalgebra(A: FiniteAlgebra, universe) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Restrict A to a subuniverse.  Returns (algebra, old indices in order)."""
    universe = list(universe)
    for x in universe:
        if not _is_element(x, A.size):
            raise InvalidInput("subset element %r outside carrier" % (x,))
    old = tuple(sorted(set(universe)))
    tables, unclosed = _tables_on(A, _rows(list(old), 1))
    if unclosed is not None:
        raise InvalidInput("set is not closed under %r" % unclosed)
    return FiniteAlgebra(A.signature, len(old), tables), old


def _join_closure(bottom, atoms, join, budget: int, message: str) -> list:
    """Every join of a subset of ``atoms``, ``bottom`` being the empty join;
    ``join`` may be any semilattice operation, a meet included.

    The joins of the first i atoms are those of the first i-1 atoms plus
    each of them joined with atom i.  Found elements keep insertion order,
    so the work does not depend on hashing; BudgetExceeded(message) as soon
    as more than ``budget`` are found, the bottom included.
    """
    if budget < 1:
        raise BudgetExceeded(message)
    found = {bottom: None}
    for atom in atoms:
        for x in list(found):
            found.setdefault(join(x, atom))
            if len(found) > budget:
                raise BudgetExceeded(message)
    return list(found)


def subuniverses(A: FiniteAlgebra, budget: int = DEFAULT_BUDGET) -> list[frozenset]:
    """All subuniverses of A: the joins of its 1-generated subuniverses."""
    if A.size > 64:
        raise BudgetExceeded("subuniverse enumeration capped at carrier 64")

    def join(u, v):
        return u if v <= u else v if u <= v else generate_subalgebra(A, u | v)

    bottom = generate_subalgebra(A, ())
    atoms = dict.fromkeys(generate_subalgebra(A, (x,)) for x in A.elements if x not in bottom)
    found = _join_closure(bottom, atoms, join, budget, "more than %d subuniverses" % budget)
    return sorted(found, key=lambda u: (len(u), sorted(u)))


def direct_product(factors, budget: int = DEFAULT_BUDGET) -> FiniteAlgebra:
    """Product algebra with operations computed pointwise.

    The carrier is the lexicographic enumeration of tuples; use
    ``product_tuple``/``product_index`` to translate.
    """
    factors = list(factors)
    if not factors:
        raise InvalidInput("empty factor list; use direct_power(A, 0) for the empty power")
    signature = factors[0].signature
    for f in factors:
        if f.signature != signature:
            raise InvalidInput("factors must share a signature")
    size = math.prod(f.size for f in factors)
    if size > budget:
        raise BudgetExceeded("product carrier %d exceeds budget %d" % (size, budget))
    sizes = [f.size for f in factors]
    tables = {name: _product_stack([f._flat[name] for f in factors], sizes, arity).ravel()
              for name, arity in signature.ops}
    return FiniteAlgebra(signature, size, tables)


def direct_power(A: FiniteAlgebra, exponent: int, budget: int = DEFAULT_BUDGET) -> FiniteAlgebra:
    """A**exponent; the empty power is the singleton algebra, and A**1 is A.
    A power within the block cap is built once and shared (``_power``)."""
    if exponent < 0:
        raise InvalidInput("negative exponent")
    if exponent and A.size ** exponent > budget:
        raise BudgetExceeded("product carrier %d exceeds budget %d" % (A.size ** exponent, budget))
    power = A if exponent == 1 else _power(A, exponent)
    return direct_product([A] * exponent, budget=budget) if power is None else power


def product_tuple(sizes, index: int) -> tuple[int, ...]:
    out = []
    for s in reversed(sizes):
        out.append(index % s)
        index //= s
    return tuple(reversed(out))


def product_index(sizes, coords) -> int:
    index = 0
    for s, c in zip(sizes, coords):
        index = index * s + c
    return index


def power_tuple(n: int, length: int, index: int) -> tuple[int, ...]:
    """Element ``index`` of a power of an n-element algebra as its digits."""
    values = [0] * length
    for i in range(length - 1, -1, -1):
        index, values[i] = divmod(index, n)
    return tuple(values)


def power_index(n: int, coords) -> int:
    """The element with these coordinates; the inverse of ``power_tuple``."""
    index = 0
    for c in coords:
        index = index * n + c
    return index


def generate_vectors(L: FiniteAlgebra, length: int, seeds,
                     budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """Closure of vectors in L**length under pointwise operations.

    In a power that ``_power`` caches, vectors close as the elements with
    their codes do (``_closure``); longer ones close themselves (``_close``),
    so their power is never tabulated.  Returns the closed set sorted; it is
    empty only for constant-free signatures with no seeds.
    """
    seeds = _checked(L, length, seeds, "seed vector")
    # both paths stay: closing every vector with _close made criteria-algebra 1.42x slower
    power = _power(L, length)
    if power is None:
        start = set(seeds).union((L.apply(name),) * length for name in L.signature.constants)
        closed = _close(L, _rows(list(start), length), budget)
        return list(map(tuple, closed.tolist()))
    known = _closure(power, _codes(_rows(seeds, length), L.size).tolist(), budget)
    return list(map(tuple, _decode(np.flatnonzero(known), L.size, length).tolist()))


def algebra_from_vectors(L: FiniteAlgebra, length: int, vectors):
    """Abstract algebra on a closed set of vectors (pointwise operations).

    Returns (algebra, carrier) where carrier[i] is the vector of element i.
    """
    carrier = sorted(set(_checked(L, length, vectors, "vector")))
    tables, unclosed = _tables_on(L, _rows(carrier, length))
    if unclosed is not None:
        raise InvalidInput("vector set is not closed under %r" % unclosed)
    return FiniteAlgebra(L.signature, len(carrier), tables), carrier


# --- homomorphism enumeration -------------------------------------------------

class _HomPlan:
    """Derivation plan for backtracking over generator images.

    Level 0 is the constants; level i adds the i-th generator, the given one
    or else the least element not yet reached, and closes with ``_rounds``.
    Each round is a stage: constants are stage 0 and a generator no earlier
    level reached gets one of its own.  ``levels[i]`` is level i's range of
    stages.  ``stages[t]`` groups, per stack of ``_stacks`` (operations
    of one arity), the argument tuples whose latest argument is at stage t:
    (stack index, argument columns, results as operations x tuples, and the
    positions there whose result is first reached at stage t + 1).  Its
    arrays are read-only: equal algebras share one plan (``_plan``).
    """

    def __init__(self, A: FiniteAlgebra, gens=None):
        stage = np.full(A.size, -1, dtype=np.int64)
        self.consts = np.array([A.apply(name) for name in A.signature.constants], dtype=np.int64)
        stage[self.consts] = 0
        known = stage == 0
        picked: list[int] = []
        self.levels: list[range] = []
        start, top = 0, 1
        while True:
            for fresh in _rounds(A._stacks, known):
                stage[fresh] = top
                top += 1
            self.levels.append(range(start, top))
            if gens is None and not known.all():
                g = int(np.argmin(known))
            elif gens is not None and len(picked) < len(gens):
                g = gens[len(picked)]
            else:
                break
            picked.append(g)
            start = top
            if not known[g]:
                known[g] = True
                stage[g] = top
                top += 1
        if not known.all():
            raise InvalidInput("given generators do not generate the algebra")
        self.gens = tuple(picked)
        self.stages: list[list] = [[] for _ in range(top)]
        for s, (_, tables) in enumerate(A._stacks):
            at = functools.reduce(np.maximum.outer, [stage] * (tables.ndim - 1))
            for t in np.flatnonzero(np.bincount(at.ravel())).tolist():
                args = np.nonzero(at == t)
                out = tables[(slice(None),) + args]
                derive = np.nonzero(stage[out] == t + 1)
                for array in args + (out,) + derive:
                    array.flags.writeable = False
                self.stages[t].append((s, args, out, derive))
        self.consts.flags.writeable = False


def _plan(A: FiniteAlgebra, gens) -> _HomPlan:
    """``_HomPlan(A, gens)``, ``gens`` a tuple or None.  Equal algebras with
    equal ``gens`` share one plan while A's stacks fit ``_BLOCK_CELLS``
    cells, as ``_power``'s powers do; a larger algebra builds a fresh plan
    per call, so no large plan outlives its call."""
    if sum(tables.size for _, tables in A._stacks) > _BLOCK_CELLS:
        return _HomPlan(A, gens)
    return _shared_plan(A, gens)


@functools.lru_cache(maxsize=16)
def _shared_plan(A: FiniteAlgebra, gens) -> _HomPlan:
    # sampled subalgebras of powers repeat by value, as separate objects
    return _HomPlan(A, gens)


def enumerate_homs(A: FiniteAlgebra, B: FiniteAlgebra, gens=None) -> list[ElementMap]:
    """All homomorphisms A -> B, in lexicographic order of generator images.

    Backtracks over images of a generating set.  Each stage gathers each of
    B's table stacks once, writes the images it derives, and only then
    compares every application with its result's image, so that two
    derivations of one element that disagree in B cannot both pass.
    """
    if A.signature != B.signature:
        raise InvalidInput("algebras must share a signature")
    if A.size == 0:
        return [ElementMap(A, B, ())]
    if B.size == 0:
        return []
    if gens is not None:
        gens = tuple(gens)
        for g in gens:
            if not _is_element(g, A.size):
                raise InvalidInput("generator %r outside carrier" % (g,))
        # plain ints: equal generators key one cached plan, and True is
        # element 1, not a numpy mask
        gens = tuple(map(operator.index, gens))
    plan = _plan(A, gens)  # raises if the given generators do not generate
    gens = plan.gens
    b_stacks = [tables for _, tables in B._stacks]
    const_images = np.array([B.apply(name) for name in B.signature.constants], dtype=np.int64)
    image = np.full(A.size, -1, dtype=np.int64)
    results: list[ElementMap] = []

    def replay(level, gen_image):
        if level == 0:
            # constants that coincide in A must coincide in B
            image[plan.consts] = const_images
            if not np.array_equal(image[plan.consts], const_images):
                return False
        elif plan.levels[level]:
            image[gens[level - 1]] = gen_image
        elif image[gens[level - 1]] != gen_image:
            # the generator was derived earlier; its image is already forced
            return False
        for t in plan.levels[level]:
            values = [b_stacks[s][(slice(None),) + tuple(image[c] for c in cols)]
                      for s, cols, _, _ in plan.stages[t]]
            for (_, _, res, derive), got in zip(plan.stages[t], values):
                image[res[derive]] = got[derive]
            for (_, _, res, _), got in zip(plan.stages[t], values):
                if not (got == image[res]).all():
                    return False
        return True

    def search(level):
        if level > len(gens):
            results.append(ElementMap(A, B, tuple(image.tolist())))
            return
        for b in B.elements if level else (None,):
            if replay(level, b):
                search(level + 1)
    search(0)
    return results


def kernel(h: ElementMap) -> Congruence:
    """Partition of the domain by equal images; requires a homomorphism."""
    if not h.is_homomorphism():
        raise InvalidInput("kernel is only defined for homomorphisms")
    return Congruence.from_blocks(h.values)


def _induced_tables(A: FiniteAlgebra, blocks, num_blocks):
    """Quotient tables for blocks numbered 0..num_blocks-1, or None if the
    partition is not compatible.  At the blocks of each argument tuple a
    table holds its result's block; compatible means that every tuple reads
    its own result's block back."""
    b = np.array(blocks, dtype=np.int64)
    tables = {name: b[A._flat[name]] for name in A.signature.constants}
    for names, stack in A._stacks:
        key = (slice(None),) + np.ix_(*(b,) * (stack.ndim - 1))
        table = np.zeros((len(names),) + (num_blocks,) * (stack.ndim - 1), dtype=np.int64)
        table[key] = b[stack]
        if not np.array_equal(table[key], b[stack]):
            return None
        tables.update(zip(names, table.reshape(len(names), -1)))
    return tables


def _numbers_carrier(A: FiniteAlgebra, theta: Congruence) -> bool:
    """Whether theta has one block per element, numbered exactly 0..k-1."""
    return (len(theta.blocks) == A.size
            and set(theta.blocks) == set(range(theta.num_blocks)))


def is_congruence(A: FiniteAlgebra, theta: Congruence) -> bool:
    if not _numbers_carrier(A, theta):
        return False
    return _induced_tables(A, theta.blocks, theta.num_blocks) is not None


def quotient(A: FiniteAlgebra, theta: Congruence):
    """A/theta together with the projection homomorphism."""
    if not _numbers_carrier(A, theta):
        raise InvalidInput("partition does not match carrier")
    tables = _induced_tables(A, theta.blocks, theta.num_blocks)
    if tables is None:
        raise InvalidInput("partition is not compatible with the operations")
    Q = FiniteAlgebra(A.signature, theta.num_blocks, tables)
    return Q, ElementMap(A, Q, theta.blocks)


def generate_congruence(A: FiniteAlgebra, pairs) -> Congruence:
    """Least congruence identifying the given pairs (union-find + propagation)."""
    n = A.size
    parent = list(range(n))
    queue = []

    def union(a, b):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            queue.append((a, b))

    for a, b in pairs:
        if not (_is_element(a, n) and _is_element(b, n)):
            raise InvalidInput("pair outside carrier")
        union(a, b)
    # a merged pair's images under every basic translation are merged too
    while queue:
        a, b = queue.pop()
        for _, tables in A._stacks:
            for p in range(1, tables.ndim):
                images = zip(np.take(tables, a, axis=p).ravel().tolist(),
                             np.take(tables, b, axis=p).ravel().tolist())
                for x, y in images:
                    union(x, y)
    return Congruence.from_blocks(_find(parent, x) for x in range(n))


def in_prevariety(A: FiniteAlgebra, L: FiniteAlgebra) -> bool:
    """Whether A embeds in a power of L, i.e. Hom(A, L) separates elements.

    Degenerate cases: a singleton always embeds (empty product); the empty
    algebra embeds exactly when the signature is constant-free.
    """
    if A.signature != L.signature:
        raise InvalidInput("algebras must share a signature")
    if A.size == 0:
        return not A.signature.constants
    if A.size == 1:
        return True
    homs = enumerate_homs(A, L)
    return len({tuple(h.values[a] for h in homs) for a in A.elements}) == A.size


def relative_congruences(A: FiniteAlgebra, L: FiniteAlgebra,
                         budget: int = DEFAULT_BUDGET) -> list[Congruence]:
    """Congruences whose quotient lies in the prevariety generated by L.

    A/theta embeds in a power of L exactly when theta is an intersection of
    kernels of homomorphisms A -> L, the total congruence being the empty
    one, so the result is the meet-closure of the kernels of Hom(A, L).
    BudgetExceeded once more than ``budget`` are found.
    """
    return _kernel_meets(A, enumerate_homs(A, L), budget)


def _kernel_meets(A: FiniteAlgebra, homs, budget: int) -> list[Congruence]:
    """``relative_congruences`` from the homomorphisms ``homs``, all of
    Hom(A, L) in any order: the meets of their kernels, the total congruence
    included, in ``relative_congruences``' order.  Whether more than
    ``budget`` are found does not depend on the order of ``homs``."""
    kernels = dict.fromkeys(Congruence.from_blocks(h.values) for h in homs)
    found = _join_closure(total_congruence(A), kernels, Congruence.meet, budget,
                          "congruence lattice exceeds budget")
    return sorted(found, key=lambda t: (t.num_blocks, t.blocks), reverse=True)
