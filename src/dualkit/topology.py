"""Finite topologies stored as minimal open neighbourhoods, one bitmask per point.

A finite topology is fixed by each point's minimal open neighbourhood N(x),
the intersection of the opens that contain x (Alexandroff 1937; Stong,
"Finite topological spaces", Trans. AMS 123, 1966).  The opens are exactly
the unions of these sets, and y in N(x) is the specialization preorder.

Neighbourhoods are stored instead of the open-set family because costs on
the family grow with it, and it has up to 2^n members: validating a family
compares every pair of opens, and a continuity test on a subset of points
builds and validates a subspace.  On neighbourhoods, openness, continuity
into a discrete or finite space, subspaces, quotients and closedness of a
relation in X x X are all tests of at most O(n^2) bitmask operations.  The
open family is still available as ``opens``, derived on demand within a
budget; the tests keep an open-family class as the oracle these operations
are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebras import DEFAULT_BUDGET, BudgetExceeded, InvalidInput, _join_closure

MAX_POINTS = 20


def mask_of(points) -> int:
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


# _BYTE_BITS[k][b]: the set bits of byte b, as positions in byte k of a mask
_BYTE_BITS = tuple(tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
                   for k in range(3))


def bits_of(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, ascending.

    The low 24 bits, which hold every point mask (at most ``MAX_POINTS``
    bits), are read off three byte tables, and a mask below 256 (such as a
    value mask over a small carrier) off the first alone.  Above them the
    walk jumps from one lowest set bit to the next, so a wide sparse mask,
    such as a value mask over a large carrier, costs one step per set bit
    and not one per bit position.
    """
    low, middle, high = _BYTE_BITS
    if 0 <= mask < 256:
        return low[mask]
    if mask < 0:
        raise InvalidInput("a point set mask cannot be negative")
    out = low[mask & 255] + middle[mask >> 8 & 255] + high[mask >> 16 & 255]
    mask >>= 24
    if not mask:
        return out
    wide = list(out)
    while mask:
        lowest = mask & -mask
        wide.append(lowest.bit_length() + 23)
        mask ^= lowest
    return tuple(wide)


@dataclass(frozen=True)
class FiniteTopology:
    """Points 0..n-1; nbhds[x] is the bitmask of the smallest open set containing x."""

    n: int
    nbhds: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or self.n > MAX_POINTS:
            raise InvalidInput("point count must lie in 0..%d" % MAX_POINTS)
        nbhds = tuple(self.nbhds)
        object.__setattr__(self, "nbhds", nbhds)
        if len(nbhds) != self.n:
            raise InvalidInput("one neighbourhood per point is required")
        full = (1 << self.n) - 1
        for x, u in enumerate(nbhds):
            if u & ~full:
                raise InvalidInput("open set outside the point range")
            if not u >> x & 1:
                raise InvalidInput("a neighbourhood must contain its point")
            for y in bits_of(u):
                if nbhds[y] & ~u:
                    raise InvalidInput("neighbourhoods are not transitive")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every open set as a bitmask: the unions of minimal neighbourhoods."""
        return frozenset(_join_closure(0, dict.fromkeys(self.nbhds), int.__or__,
                                       DEFAULT_BUDGET, "open-set family exceeds budget"))

    def is_open(self, mask: int) -> bool:
        if mask & ~self.full_mask:
            return False
        return all(not self.nbhds[x] & ~mask for x in bits_of(mask))

    def is_closed(self, mask: int) -> bool:
        return self.is_open(self.full_mask & ~mask)

    def is_discrete(self) -> bool:
        return all(u == 1 << x for x, u in enumerate(self.nbhds))

    def min_nbhd(self, point: int) -> int:
        """Smallest open set containing the point."""
        return self.nbhds[point]

    @cached_property
    def ties(self) -> tuple[int, ...]:
        """The points local constancy ties to each point p: those in N(p)
        and those whose neighbourhood holds p, less p."""
        inside = [u & ~(1 << p) for p, u in enumerate(self.nbhds)]
        ties = list(inside)
        for q, u in enumerate(inside):
            for p in bits_of(u):
                ties[p] |= 1 << q
        return tuple(ties)

    @cached_property
    def component_masks(self) -> tuple[int, ...]:
        """The mask of each point's component, the closure of its ties."""
        ties, masks = self.ties, [0] * self.n
        for p in range(self.n):
            if not masks[p]:
                reach, frontier = 1 << p, ties[p]
                while frontier:
                    reach |= frontier
                    grown = 0
                    for q in bits_of(frontier):
                        grown |= ties[q]
                    frontier = grown & ~reach
                for q in bits_of(reach):
                    masks[q] = reach
        return tuple(masks)

    def components(self) -> tuple[int, ...]:
        """Classes of the equivalence generated by y in min_nbhd(x),
        numbered by their least points in ascending order.

        A function into a discrete space is continuous exactly when it is
        constant on these classes.
        """
        number: dict = {}
        return tuple(number.setdefault(mask & -mask, len(number))
                     for mask in self.component_masks)

    def specialization(self):
        """x <= y iff every open containing y contains x, i.e. x in min_nbhd(y)."""
        return [[bool(self.nbhds[y] >> x & 1) for y in range(self.n)]
                for x in range(self.n)]

    def subspace(self, points) -> "FiniteTopology":
        points = sorted(set(points))
        position = {p: i for i, p in enumerate(points)}
        return FiniteTopology(len(points), tuple(
            mask_of(position[q] for q in bits_of(self.nbhds[p]) if q in position)
            for p in points))

    def quotient(self, classes) -> "FiniteTopology":
        """Quotient topology along a point -> class index map.

        A set of classes is open when it holds the class of every point in
        N(x) for each point x in it, so a class's neighbourhood is the
        transitive closure of those images.
        """
        classes = tuple(classes)
        if len(classes) != self.n:
            raise InvalidInput("class vector does not match point count")
        m = max(classes) + 1 if classes else 0
        step = [0] * m
        for x, u in enumerate(self.nbhds):
            step[classes[x]] |= mask_of(classes[y] for y in bits_of(u))
        nbhds = []
        for c in range(m):
            reach = frontier = 1 << c
            while frontier:
                grown = reach
                for d in bits_of(frontier):
                    grown |= step[d]
                frontier = grown & ~reach
                reach = grown
            nbhds.append(reach)
        return FiniteTopology(m, tuple(nbhds))

    def is_locally_constant(self, points, values) -> bool:
        """points[i] -> values[i] is constant on each N(p) within points.

        That is continuity into a discrete space on the subspace on points,
        decided without building the subspace.
        """
        nbhds = self.nbhds
        inside = mask_of(points)
        value_at = None
        for p, v in zip(points, values):
            others = nbhds[p] & inside & ~(1 << p)
            if others:
                if value_at is None:
                    value_at = dict(zip(points, values))
                if any(value_at[q] != v for q in bits_of(others)):
                    return False
        return True

    def is_continuous_map(self, target: "FiniteTopology", values) -> bool:
        """x -> values[x] is continuous into target: f(N(x)) lies in N(f(x))."""
        into = target.nbhds
        for x, u in enumerate(self.nbhds):
            image = into[values[x]]
            if any(not image >> values[y] & 1 for y in bits_of(u)):
                return False
        return True

    def is_closed_relation(self, rows) -> bool:
        """The relation {(x, y) : bit y of rows[x]} is closed in X x X.

        Its complement is open when N(x) x N(y) misses the relation for every
        pair (x, y) outside it.
        """
        nbhds = self.nbhds
        reach = []
        for u in nbhds:
            r = 0
            for x in bits_of(u):
                r |= rows[x]
            reach.append(r)
        return all(rows[x] >> y & 1 or not reach[x] & nbhds[y]
                   for x in range(self.n) for y in range(self.n))


def discrete_topology(n: int) -> FiniteTopology:
    if n > MAX_POINTS:
        raise BudgetExceeded("too many points for an explicit topology")
    return FiniteTopology(n, tuple(1 << x for x in range(n)))


def indiscrete_topology(n: int) -> FiniteTopology:
    return FiniteTopology(n, ((1 << n) - 1,) * n)


def topology_from_subbasis(n: int, masks) -> FiniteTopology:
    """Generate a topology: N(x) is the whole space cut by every mask containing x."""
    if n > MAX_POINTS:
        raise BudgetExceeded("too many points for an explicit topology")
    full = (1 << n) - 1
    nbhds = [full] * n
    for m in masks:
        m &= full
        for x in bits_of(m):
            nbhds[x] &= m
    return FiniteTopology(n, tuple(nbhds))


def topology_from_opens(n: int, opens) -> FiniteTopology:
    """The topology whose open sets are exactly the given bitmasks.

    A family holding the empty set and the whole space is closed under union
    and intersection exactly when it holds every minimal neighbourhood N(x)
    and every union U | N(x) with a member U, so the check costs
    O(|opens| * n) set lookups rather than a pass over all pairs of opens.
    """
    if n < 0 or n > MAX_POINTS:
        raise InvalidInput("point count must lie in 0..%d" % MAX_POINTS)
    opens = frozenset(opens)
    full = (1 << n) - 1
    if 0 not in opens or full not in opens:
        raise InvalidInput("a topology contains the empty set and the whole space")
    nbhds = [full] * n
    for u in opens:
        if u & ~full:
            raise InvalidInput("open set outside the point range")
        for x in bits_of(u):
            nbhds[x] &= u
    for u in set(nbhds):
        if u not in opens or any(u | v not in opens for v in opens):
            raise InvalidInput("opens not closed under union/intersection")
    return FiniteTopology(n, tuple(nbhds))
